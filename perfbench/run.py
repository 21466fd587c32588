#!/usr/bin/env python3
"""fedbench benchmark: one workload per process, timed end to end or traced.

    python3 perfbench/run.py --workload fs_grid_ckpt --seed 0 --seconds 25 --trace 0

Run it from the repository root; it imports fedbench from ``src/``.  The
workload seed makes the inputs.  The run repeats whole passes of the
workload's timed operations until ``--seconds`` have gone, checks every
output and prints a table, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, untraced.  Of the pass
times it gates ``wall_ref``, the pass time in units of a fixed reference
task timed around each operation, because the host's speed drifts.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones, plus the tracing overhead.  Scratch files go under
``.perfbench_work/`` and are removed at exit.
"""

import time

T0 = time.perf_counter()  # setup_s runs from here to the first timed operation

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import SPANS, Tracer, summarize, traced, us_p50  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7  # this process plus six fresh ones
MB = 1e6


def import_fedbench() -> float:
    """Import fedbench from this checkout's ``src/``; returns the seconds it took."""
    start = time.perf_counter()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fedbench.cli  # noqa: F401  (pulls in every fedbench module)

    if Path(fedbench.__file__).resolve().parent != src / "fedbench":
        raise SystemExit(f"fedbench imported from {fedbench.__file__}, not from {src}")
    return time.perf_counter() - start


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fs_grid_ckpt", "ls_sweep_cli", "rank_compare"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print setup_s as JSON and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def dir_stats(path: Path) -> tuple[int, int]:
    """(bytes in regular files, number of .npz files) under ``path``."""
    size = npz = 0
    for p in path.rglob("*"):
        if p.is_file():
            size += p.stat().st_size
            npz += p.suffix == ".npz"
    return size, npz


def probe_setup(args) -> list[float]:
    """Set-up time of fresh processes doing the same imports and inputs."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Run:
    """Passes of one workload in this process, and what they measured."""

    def __init__(self, args, work_root: Path):
        from workloads import WORKLOADS

        self.args = args
        self.work_root = work_root
        self.make = lambda: WORKLOADS[args.workload](args.seed)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.passes = 0

    def tally(self, res) -> None:
        self.attempted += res.attempted
        self.failed += res.failed

    def _next_dir(self) -> Path:
        self.passes += 1
        return self.work_root / f"pass_{self.passes}"

    def untraced_pass(self, workload) -> dict:
        out = self._next_dir()
        res = workload.run_pass(out)
        self.tally(res)
        size, _ = dir_stats(out)
        shutil.rmtree(out)
        return {"res": res, "out_bytes": size}

    def traced_pass(self) -> dict:
        """Fresh inputs and one pass, both under the wrappers."""
        tracer = Tracer()
        workload = self.make()
        base = self._next_dir()
        with traced(tracer):
            setup = workload.setup(base / "inputs")
            self.tally(setup)
            if setup.failed:
                raise RuntimeError("set-up failed in a traced pass")
            res = workload.run_pass(base / "out")
        self.tally(res)
        _, npz = dir_stats(base / "out")
        shutil.rmtree(base)
        layer = layer_metrics(tracer, workload.work, npz)
        for count, traced_value, computed in (
            ("nn.forward_train.calls", layer["nn.forward_train.calls"], workload.work.steps),
            ("train rows", tracer.counts.get("nn.train_rows", 0), workload.work.rows),
        ):
            if traced_value != computed:
                self.problems.append(f"traced {count} = {traced_value}, computed {computed}")
        return {"res": res, "layer": layer}

    def test_auroc_mean(self, passes: list[dict]) -> float | None:
        """Mean test metric over the experiments; every pass must give the same bits."""
        quality = [sum(p["res"].quality) / len(p["res"].quality)
                   for p in passes if p["res"].quality]
        if len(set(quality)) > 1:
            self.problems.append(f"test_auroc_mean differs between passes: {quality}")
        return quality[0] if quality else None


def layer_metrics(tracer, work, npz_left: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    summary = summarize(tracer.spans)
    m: dict[str, float] = {}
    for name, hot in SPANS.items():
        entry = summary.get(name)
        m[f"{name}.calls"] = entry["calls"] if entry else 0
        m[f"{name}.self_s"] = entry["self_s"] if entry else 0.0
        if hot:
            m[f"{name}.us_p50"] = us_p50(entry)
    fwd_bwd_s = m["nn.forward_train.self_s"] + m["nn.backward.self_s"]
    opt_steps = m["nn.sgd_step.calls"] + m["nn.adam_step.calls"]
    written = m["params.save_paramset.calls"]
    m.update({
        "nn.train_mflop": work.train_mflop,
        "nn.train_mflop_per_s": work.train_mflop / fwd_bwd_s if fwd_bwd_s else 0.0,
        "params.copy_per_step": m["params.copy.calls"] / opt_steps if opt_steps else 0.0,
        "params.ckpt_files_written": written,
        "params.ckpt_files_left": npz_left,
        "params.ckpt_keep_ratio": npz_left / written if written else 0.0,
        "params.ckpt_mb_written": tracer.counts.get("params.ckpt_bytes_written", 0) / MB,
        "orchestrator.steps": work.steps,
        "orchestrator.client_rounds": work.client_rounds,
        "orchestrator.diverged_client_rounds":
            tracer.counts.get("orchestrator.diverged_client_rounds", 0),
        "data_synth.csv_mb_written": tracer.counts.get("data_synth.csv_bytes_written", 0) / MB,
        "data_synth.csv_mb_read": tracer.counts.get("data_synth.csv_bytes_read", 0) / MB,
        "metrics.mwu_arrangements": work.mwu_arrangements,
        "trace.spans": len(tracer.spans),
    })
    return m


def median_of(dicts: list[dict]) -> dict[str, float]:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def end_to_end(run: Run, workload, passes: list[dict], setup_s: list[float]) -> list[tuple]:
    """Table rows (name, value, unit, note, in the JSON line) of an untraced run."""
    results = [p["res"] for p in passes]
    wall_s = statistics.median(r.wall_s for r in results)
    rows = [
        ("setup_s", statistics.median(setup_s), "s",
         " ".join(f"{v:.3f}" for v in setup_s), True),
        ("wall_s", wall_s, "s", "passes: " + " ".join(f"{r.wall_s:.3f}" for r in results), False),
        ("wall_ref", statistics.median(r.wall_ref for r in results), "x_ref",
         "passes: " + " ".join(f"{r.wall_ref:.1f}" for r in results), True),
        ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB, "MB",
         "", True),
        ("out_dir_mb", statistics.median(p["out_bytes"] for p in passes) / MB, "MB", "", True),
    ]
    work = workload.work
    if work.rows:
        rows.append(("train_examples_per_s", work.rows / wall_s, "examples/s",
                     f"{work.rows} rows", False))
    if run.args.workload == "fs_grid_ckpt":
        ops = [s for r in results for s in r.op_seconds]
        rows.append(("experiment_s_p50", statistics.median(ops), "s", f"n={len(ops)}", False))
    if run.args.workload == "rank_compare":
        compare_s = statistics.median(r.compare_s for r in results)
        rows.append(("rank_tests_per_s", workload.tests / compare_s, "tests/s",
                     f"{workload.tests} tests", False))
    quality = run.test_auroc_mean(passes)
    if quality is not None:
        rows.append(("test_auroc_mean", quality, "unitless", "", False))
    rows.append(("failed_share", run.failed / run.attempted, "ratio",
                 f"{run.failed}/{run.attempted}", False))
    return rows


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("FEDBENCH_THREADS", None)  # client training stays sequential
    import_s = import_fedbench()
    work_root = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        run = Run(args, work_root)
        workload = run.make()
        run.tally(workload.setup(work_root / "inputs"))
        setup_s = time.perf_counter() - T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0 if run.failed == 0 else 1
        if run.failed:
            print("set-up failed; no timed operation ran", file=sys.stderr)
            return 1

        untraced, traced = [], []
        start = time.perf_counter()
        while not untraced or (args.trace and not traced) or \
                time.perf_counter() - start < args.seconds:
            untraced.append(run.untraced_pass(workload))
            if args.trace:
                traced.append(run.traced_pass())

        print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
              f"passes {len(untraced)} untraced + {len(traced)} traced")
        if args.trace:
            run.test_auroc_mean(untraced + traced)
            metrics = median_of([t["layer"] for t in traced])
            walls = [statistics.median(p["res"].wall_ref for p in ps) for ps in (untraced, traced)]
            metrics["cli.import_s"] = import_s
            metrics["trace.overhead_share"] = (walls[1] - walls[0]) / walls[0]
            units = {name: unit_of(name) for name in metrics}
            table = [(name, value, units[name], "") for name, value in metrics.items()]
            result = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
        else:
            rows = end_to_end(run, workload, untraced, [setup_s] + probe_setup(args))
            table = [row[:4] for row in rows]
            result = {name: {"value": value, "unit": unit}
                      for name, value, unit, _, gated in rows if gated}
        for name, value, unit, note in table:
            print(f"  {name:<44} {value:>16.6g} {unit:<12} {note}")
        for problem in run.problems:
            print(f"FAILED {problem}", file=sys.stderr)
        print(json.dumps({
            "correct": run.failed == 0 and not run.problems,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": result,
        }))
        return 0
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    suffix = name.rsplit(".", 1)[-1]
    if suffix in ("self_s", "import_s"):
        return "s"
    if suffix == "us_p50":
        return "us"
    if "_mb_" in suffix:
        return "MB"
    return {
        "train_mflop": "MFLOP",
        "train_mflop_per_s": "MFLOP/s",
        "copy_per_step": "ratio",
        "ckpt_keep_ratio": "ratio",
        "overhead_share": "ratio",
    }.get(suffix, "count")


if __name__ == "__main__":
    sys.exit(main())
