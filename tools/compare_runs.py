"""Compare two experiment output directories, file by file.

For each file of either directory it prints ``byte-identical``, or else
the largest absolute and relative difference of every CSV column and
every JSON key (a list of numbers is one key).  Keys in
``VOLATILE_KEYS`` are skipped: they hold timings, paths and the
environment record of ``config.json``, which change between runs of
the same code.  A JSON file that differs only there prints
``identical apart from volatile keys``.

Run from the repository root::

    python3 tools/compare_runs.py A B [--rtol R]

It exits 1 when a relative difference exceeds ``R`` (default 0, so any
difference fails) or on a structural difference: a file missing from
one side, a CSV header, a row count, an integer field, a JSON key,
list length or non-float value, or any difference in another file.
The relative difference of ``a`` and ``b`` is ``|a - b| / max(|a|,
|b|)``; two NaNs or two equal infinities are equal, a NaN against a
number differs by ``inf``.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

#: Keys whose values change between runs of the same code: timings,
#: the output and dataset paths, and config.json's environment record.
VOLATILE_KEYS = frozenset({
    "wall_time", "emit_time", "reference_seconds", "out", "dataset",
    "numpy_version", "scipy_version", "cpu_count", "thread_caps",
})


class Report:
    """Printed lines and the verdict of one comparison."""

    def __init__(self, rtol: float):
        self.rtol = rtol
        self.lines: list[str] = []
        self.failed = False
        self.differs = False  # of the file being compared

    def structural(self, where: str, what: str) -> None:
        self.lines.append(f"  {where}: {what}")
        self.failed = self.differs = True

    def numbers(self, where: str, pairs) -> None:
        """Record the largest differences over ``(a, b)`` float pairs."""
        worst_abs = worst_rel = 0.0
        for a, b in pairs:
            if a == b or (math.isnan(a) and math.isnan(b)):
                continue
            diff = abs(a - b)
            if not math.isfinite(diff):  # a NaN against a number, or unequal infinities
                worst_abs = worst_rel = math.inf
                continue
            worst_abs = max(worst_abs, diff)
            worst_rel = max(worst_rel, diff / max(abs(a), abs(b)))
        self.lines.append(f"  {where}: max abs {worst_abs:.3g}, max rel {worst_rel:.3g}")
        self.differs |= worst_abs > 0
        if not worst_rel <= self.rtol:
            self.failed = True


def _is_int(text: str) -> bool:
    return text.lstrip("+-").isdigit()


def _compare_csv(a: Path, b: Path, report: Report) -> None:
    rows_a, rows_b = (list(csv.reader(path.open(newline=""))) for path in (a, b))
    if rows_a[:1] != rows_b[:1]:
        return report.structural("header", f"{rows_a[:1]} != {rows_b[:1]}")
    if len(rows_a) != len(rows_b):
        return report.structural("rows", f"{len(rows_a) - 1} != {len(rows_b) - 1}")
    header, body_a, body_b = rows_a[0], rows_a[1:], rows_b[1:]
    if any(len(row) != len(header) for row in body_a + body_b):
        return report.structural("rows", "a row has the wrong number of fields")
    for j, name in enumerate(header):
        col_a, col_b = [row[j] for row in body_a], [row[j] for row in body_b]
        if all(map(_is_int, col_a + col_b)):
            if col_a != col_b:
                report.structural(name, "integer field differs")
        else:
            report.numbers(name, zip(map(float, col_a), map(float, col_b)))


def _walk_json(a, b, where: str, report: Report) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return report.structural(where or "keys", f"{sorted(a)} != {sorted(b)}")
        for key in a:
            if key not in VOLATILE_KEYS:
                _walk_json(a[key], b[key], f"{where}.{key}" if where else key, report)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return report.structural(where, f"length {len(a)} != {len(b)}")
        if all(type(v) is float for v in a + b):
            report.numbers(where, zip(a, b))
        else:
            for i, (va, vb) in enumerate(zip(a, b)):
                _walk_json(va, vb, f"{where}[{i}]", report)
    elif type(a) is float and type(b) is float:
        report.numbers(where, [(a, b)])
    elif type(a) is not type(b) or a != b:
        report.structural(where, f"{a!r} != {b!r}")


def compare_dirs(dir_a, dir_b, rtol: float = 0.0) -> Report:
    """Compare every file of two output directories at ``rtol``."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names = sorted({p.name for d in (dir_a, dir_b) for p in d.iterdir() if p.is_file()})
    report = Report(rtol)
    for name in names:
        a, b = dir_a / name, dir_b / name
        if not (a.is_file() and b.is_file()):
            report.lines.append(f"{name}:")
            report.structural("file", f"missing from {dir_b if a.is_file() else dir_a}")
        elif a.read_bytes() == b.read_bytes():
            report.lines.append(f"{name}: byte-identical")
        elif name.endswith(".csv"):
            report.lines.append(f"{name}:")
            _compare_csv(a, b, report)
        elif name.endswith(".json"):
            start, report.differs = len(report.lines), False
            report.lines.append(f"{name}:")
            _walk_json(json.loads(a.read_text()), json.loads(b.read_text()), "", report)
            if not report.differs:
                report.lines[start:] = [f"{name}: identical apart from volatile keys"]
        else:
            report.lines.append(f"{name}:")
            report.structural("bytes", "differ")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two experiment output directories")
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative difference accepted (default 0)")
    args = parser.parse_args(argv)
    for d in (args.a, args.b):
        if not d.is_dir():
            parser.error(f"{d} is not a directory")
    report = compare_dirs(args.a, args.b, args.rtol)
    print("\n".join(report.lines))
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
