"""In-memory spans around calls into fedbench, recorded from the caller's side.

The traced pass swaps timing wrappers into the names that fedbench's own
callers look up (``fedbench.orchestrator.model_forward``,
``fedbench.strategies.weighted_average``, ``ParamSet.copy``, ...) and
restores the originals afterwards; nothing under ``src/`` is edited.  Each
span records its name, start, end, parent span and operation id.  Spans stay
in memory and are reduced to per-layer metrics once the pass ends.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the top
    op: int  # operation id: numbers the top-level spans, one per operation


class Tracer:
    """Span list plus counters filled by post-call hooks."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.op = 0
        self._stack: list[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, fn, name_of=None, outermost_only=False, after=None):
        """Timing wrapper around ``fn``.

        ``name_of(args, kwargs)`` picks the span name per call.  With
        ``outermost_only`` a call made while a span of the same name is open
        records nothing, so a function that re-enters itself counts once.
        ``after(tracer, args, kwargs, result)`` runs outside the timed interval.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name_of(args, kwargs) if name_of else name
            stack = tracer._stack
            if outermost_only and stack and tracer.spans[stack[-1]].name == span_name:
                return fn(*args, **kwargs)
            if not stack:
                tracer.op += 1
            span = Span(span_name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(kids, key=lambda k: spans[k].start):
            start = max(spans[c].start, span.start)
            end = min(spans[c].end, span.end)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((span.end - span.start) - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, total self time, inclusive durations."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += own
        entry["durations"].append(span.end - span.start)
    return out


def us_p50(entry: dict | None) -> float:
    """Median inclusive duration of one call in microseconds (0 if never called)."""
    if not entry:
        return 0.0
    return statistics.median(entry["durations"]) * 1e6


# ---------------------------------------------------------------------------
# where the wrappers go

def _forward_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[3] if len(args) > 3 else "train")
    return "nn.forward_train" if mode == "train" else "nn.forward_eval"


def _count_train_rows(tracer, args, kwargs, _result) -> None:
    if _forward_name(args, kwargs) == "nn.forward_train":
        tracer.count("nn.train_rows", args[2].size)


def _count_diverged(tracer, args, kwargs, update) -> None:
    if update.diverged:
        tracer.count("orchestrator.diverged_client_rounds")


def _count_saved(tracer, args, kwargs, _result) -> None:
    tracer.count("params.ckpt_bytes_written", os.path.getsize(args[1]))


def _manifest_csv_bytes(manifest: Path) -> int:
    return sum(p.stat().st_size for p in Path(manifest).parent.glob("client_*.csv"))


def _count_csv_written(tracer, args, kwargs, manifest) -> None:
    tracer.count("data_synth.csv_bytes_written", _manifest_csv_bytes(manifest))


def _count_csv_read(tracer, args, kwargs, _result) -> None:
    tracer.count("data_synth.csv_bytes_read", _manifest_csv_bytes(args[0]))


# span name -> whether it also reports the median call time (hot spans)
SPANS = {
    "nn.forward_train": True,
    "nn.backward": True,
    "nn.sgd_step": True,
    "nn.adam_step": True,
    "nn.forward_eval": True,
    "nn.apply_running_stats": False,
    "nn.init_params": False,
    "strategies.local_loss_grad": True,
    "strategies.server_aggregate": True,
    "strategies.broadcast_fragment": False,
    "strategies.update_dyn_memory": False,
    "params.weighted_average": True,
    "params.l2_distance_excluding_norm": False,
    "params.copy": True,
    "params.save_paramset": True,
    "orchestrator.run_experiment": False,
    "orchestrator.run_round": True,
    "orchestrator.run_local_training": True,
    "orchestrator.evaluate": True,
    "data_synth.generate": False,
    "data_synth.load_partition": False,
    "data_synth.write_partition": False,
    "metrics.auroc": True,
    "metrics.mann_whitney_u": True,
    "metrics.significance_matrix": False,
    "cli.main": False,
    "cli.parse_and_validate_config": False,
}


def hooks(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, wrapper) for every traced call site."""
    from fedbench import cli, data_synth, metrics, orchestrator, params, strategies

    def at(owner, attr, name, **kw):
        return owner, attr, tracer.wrap(name, getattr(owner, attr), **kw)

    return [
        # nn: looked up by the orchestrator
        at(orchestrator, "model_forward", "", name_of=_forward_name, after=_count_train_rows),
        at(orchestrator, "model_backward", "nn.backward"),
        at(orchestrator, "local_sgd_step", "nn.sgd_step"),
        at(orchestrator, "local_adam_step", "nn.adam_step"),
        at(orchestrator, "apply_running_stats", "nn.apply_running_stats"),
        at(orchestrator, "init_params", "nn.init_params"),
        # strategies
        at(orchestrator, "local_loss_grad", "strategies.local_loss_grad"),
        at(orchestrator, "server_aggregate", "strategies.server_aggregate"),
        at(orchestrator, "broadcast_fragment", "strategies.broadcast_fragment"),
        at(orchestrator, "update_dyn_memory", "strategies.update_dyn_memory"),
        # params
        at(strategies, "weighted_average", "params.weighted_average"),
        at(orchestrator, "l2_distance_excluding_norm", "params.l2_distance_excluding_norm"),
        at(params.ParamSet, "copy", "params.copy"),
        at(orchestrator, "save_paramset", "params.save_paramset", after=_count_saved),
        # orchestrator: the benchmark and sweep_local_epochs call
        # orchestrator.run_experiment, cmd_run calls cli.run_experiment
        at(orchestrator, "run_experiment", "orchestrator.run_experiment"),
        at(cli, "run_experiment", "orchestrator.run_experiment"),
        at(orchestrator, "run_round", "orchestrator.run_round"),
        at(orchestrator, "run_local_training", "orchestrator.run_local_training",
           after=_count_diverged),
        at(orchestrator, "evaluate", "orchestrator.evaluate"),
        # data_synth
        at(orchestrator, "generate", "data_synth.generate"),
        at(data_synth, "generate", "data_synth.generate"),
        at(orchestrator, "load_partition", "data_synth.load_partition", after=_count_csv_read),
        at(cli, "write_partition", "data_synth.write_partition", after=_count_csv_written),
        # metrics: _multiclass re-enters auroc through the module global
        at(metrics, "auroc", "metrics.auroc", outermost_only=True),
        at(metrics, "mann_whitney_u", "metrics.mann_whitney_u"),
        at(metrics, "significance_matrix", "metrics.significance_matrix"),
        # cli
        at(cli, "main", "cli.main"),
        at(cli, "parse_and_validate_config", "cli.parse_and_validate_config"),
    ]


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    installed = hooks(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in installed]
    try:
        for owner, attr, wrapper in installed:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
