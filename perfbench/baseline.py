#!/usr/bin/env python3
"""Run every workload over several seeds, one process at a time, and summarize.

    python3 perfbench/baseline.py                  # 10 seeds untraced, seeds 0 and 1 traced
    python3 perfbench/baseline.py --write          # ... and rewrite perfbench/baseline.json
    python3 perfbench/baseline.py --workloads ls_sweep_cli --seeds 5 --traced-seeds

For each metric of the untraced runs it prints the median, the quartiles and
the spread, (q3 - q1) / median, with the bound ``BENCHMARK.json`` gives it.
A run that fails, or reports ``correct: false``, stops the script.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(JSON result line, every table row as name -> value) of one run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    table = {}
    for line in lines[1:-1]:
        name, value = line.split()[:2]
        table[name] = float(value)
    return result, table


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def fingerprint() -> dict:
    import numpy
    import yaml

    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").open()
                if line.startswith("model name")), platform.processor())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "pyyaml": yaml.__version__,
            "os": f"{platform.system()} {platform.release()}"}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10, help="untraced seeds 0 .. N-1")
    parser.add_argument("--traced-seeds", type=int, nargs="*", default=[0, 1])
    parser.add_argument("--write", action="store_true", help="rewrite perfbench/baseline.json")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    by_seed, summaries, per_layer = {}, {}, {}
    for workload in args.workloads:
        rows = {}
        for seed in range(args.seeds):
            _, rows[str(seed)] = run(workload, seed, seconds, 0)
        by_seed[workload] = rows
        summaries[workload] = {
            name: summary([r[name] for r in rows.values()]) for name in rows["0"]
        }
        print(workload)
        for name, s in summaries[workload].items():
            bound = f"bound {bounds[name]}" if name in bounds else ""
            print(f"  {name:<22} median {s['median']:<12.6g} spread {s['spread']:.3f}  {bound}")
        per_layer[workload] = {
            str(seed): {k: v["value"] for k, v in run(workload, seed, seconds, 1)[0]["metrics"].items()}
            for seed in args.traced_seeds
        }

    if args.write:
        baseline = {
            "fingerprint": fingerprint(),
            "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                       f"--seconds {seconds} --trace <0|1>",
            "end_to_end": summaries,
            "end_to_end_by_seed": by_seed,
            "per_layer": per_layer,
        }
        (HERE / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
