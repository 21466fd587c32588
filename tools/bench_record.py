#!/usr/bin/env python3
"""Run the benchmark's three workloads once untraced and once traced, and record them.

    python3 tools/bench_record.py N        # writes BENCH_N.json

Each workload runs ``perfbench/run.py`` at a fixed seed for the run length
``BENCHMARK.json`` sets, first with ``--trace 0`` (the end-to-end metrics)
and then with ``--trace 1`` (the per-layer metrics), each in its own
process.  ``BENCH_N.json`` goes to the root of this checkout and holds the
machine, the Python and numpy versions, the commit (and whether tracked
files differed from it), each run's JSON line and, per workload and metric,
the change against the highest-numbered ``BENCH_M.json`` with M < N there
(none for the first file).  The tool
asserts nothing about the timings: on a shared host they drift, so a gain
is claimed from alternating pairs of runs, not from one record.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fs_grid_ckpt", "ls_sweep_cli", "rank_compare")
SEED = 1000  # a seed no development run uses


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": model or platform.processor(),
            "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


def commit() -> dict:
    """The checked-out commit and whether tracked files differ from it (a
    record made before its change is committed names the parent)."""
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    if head.returncode != 0:
        return {"head": None, "uncommitted_changes": None}
    diff = subprocess.run(["git", "diff", "--quiet", "HEAD"], cwd=ROOT)
    return {"head": head.stdout.strip(), "uncommitted_changes": diff.returncode != 0}


def run(workload: str, trace: int, seconds: float) -> dict:
    """The JSON line of one ``perfbench/run.py`` process."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def previous(n: int) -> tuple[Path | None, dict | None]:
    found = {int(m.group(1)): p for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name)) and int(m.group(1)) < n}
    if not found:
        return None, None
    path = found[max(found)]
    return path, json.loads(path.read_text())


def delta(before: dict, after: dict) -> dict:
    """Per workload and metric: the two values and the relative change."""
    out = {}
    for workload, runs in after.items():
        old_runs = before.get(workload, {})
        rows = {}
        for kind, line in runs.items():
            old = old_runs.get(kind, {}).get("metrics", {})
            for name, entry in line["metrics"].items():
                if name not in old:
                    continue
                a, b = old[name]["value"], entry["value"]
                rows[name] = {"before": a, "after": b,
                              "change": (b - a) / a if a else None}
        out[workload] = rows
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not args[0].isdigit():
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    n = int(args[0])
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = {w: {"untraced": run(w, 0, seconds), "traced": run(w, 1, seconds)}
            for w in WORKLOADS}
    prev_path, prev = previous(n)
    record = {
        "machine": machine(),
        "commit": commit(),
        "seed": SEED,
        "run_seconds": seconds,
        "runs": runs,
        "previous": prev_path.name if prev_path else None,
        "delta": delta(prev["runs"], runs) if prev else None,
    }
    out = ROOT / f"BENCH_{n}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
