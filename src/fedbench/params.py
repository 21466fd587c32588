"""Parameter containers and aggregation primitives.

Inside a run, parameters are flat float64 vectors in one ``nn.Plan``'s layout:
trainable non-norm entries, then norm gains and biases (up to ``n_train``),
then batch-norm running statistics.  The server's global, its optimizer
state, every client's vector and every round-start vector are such vectors,
and the aggregation and drift primitives below work on them, from ``w_0``
(``init_params``) to the checkpoint files (``save_paramset``), which stack a
round's vectors as the rows of one float64 ``vectors`` member, next to a
``__meta__`` that names the rows, and the entries of a row in layout order
with the plan's tags (``norm`` or ``non_norm``), trainable flags, offsets and
shapes.  A ParamSet, an ordered map of named arrays with a tag and a
trainable flag per entry, is what ``load_checkpoint`` slices a row back into.

A published vector is read-only and never written again, so vectors are
shared freely: the broadcast is a view of the global, a round-start vector
is a view of the global when the algorithm shares all of it, and the in-memory
checkpoint snapshots hold vectors by reference until the run ends.  The one
in-place writer is a client round, which trains a private copy of its
round-start vector and then publishes it read-only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import KeyMismatch, WeightSumViolation

NORM = "norm"
NON_NORM = "non_norm"

_FORMAT_VERSION = 3

WEIGHT_SUM_TOL = 1e-12


@dataclass
class ParamSet:
    """Named, tagged parameter tensors (all float64), as read from a checkpoint."""

    entries: dict[str, np.ndarray]
    tags: dict[str, str]
    trainable: dict[str, bool]

    def __post_init__(self):
        for name in self.entries:
            if name not in self.tags or name not in self.trainable:  # a file's __meta__ may omit one
                raise KeyMismatch(f"entry {name!r} missing tag or trainable flag")

    # a run never calls this; it stays for perfbench's ``params.copy`` span and the test oracles
    def copy(self) -> "ParamSet":
        return ParamSet(
            entries={k: v.copy() for k, v in self.entries.items()},
            tags=dict(self.tags),
            trainable=dict(self.trainable),
        )


def make_weights(sizes: list[int]) -> list[float]:
    """Data-proportional weights n_k / n for a cohort, in the order given."""
    total = sum(sizes)
    return [n_k / total for n_k in sizes]


def weighted_average(vectors: list[np.ndarray], weights: list[float]) -> np.ndarray:
    """Elementwise ``sum_k w_k * v_k`` in list order over ``server_aggregate``'s vectors
    (one or more, of one plan) and weights, which must sum to 1 (acceptance criterion 3)."""
    total = sum(weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumViolation(f"weights sum to {total!r}, expected 1")
    acc = np.zeros_like(vectors[0])
    for v, w in zip(vectors, weights):
        acc += w * v
    return acc


def l2_distance_excluding_norm(a: np.ndarray, b: np.ndarray,
                               slots: list[tuple[int, int]]) -> float:
    """Squared L2 distance over the non-norm entries of two vectors (diagnostic
    of local drift).  ``slots`` are the (start, stop) of each non-norm entry
    (``Plan.non_norm_slots``); each entry's squares are summed on their own and
    the sums added in name order, which fixes the bits."""
    diff = a - b
    squares = diff * diff
    total = 0.0
    for start, stop in slots:
        total += float(np.add.reduce(squares[start:stop]))
    return total


# ---------------------------------------------------------------------------
# serialization (checkpoint format)

def save_paramset(vectors: dict[str, np.ndarray], path, plan) -> None:
    """Write a snapshot (row name -> ``plan`` vector) as the (rows, ``plan.size``)
    ``vectors`` member in the mapping's order, with the plan's entry layout;
    every row round-trips bitwise through ``load_checkpoint``."""
    meta = {
        "format_version": _FORMAT_VERSION,
        "names": plan.names,
        "tags": plan.tags,
        "trainable": plan.trainable,
        "offsets": [plan.slots[n][0] for n in plan.names],
        "shapes": [plan.slots[n][2] for n in plan.names],
        "rows": list(vectors),
    }
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 vectors=np.stack(list(vectors.values())))


def load_checkpoint(path) -> dict[str, ParamSet]:
    """A checkpoint's rows by name, each sliced into entries, each entry its own copy."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        if meta.get("format_version") != _FORMAT_VERSION:
            raise KeyMismatch(f"unsupported checkpoint version {meta.get('format_version')}")
        stack = data["vectors"]
    if stack.ndim != 2 or stack.shape[0] != len(meta["rows"]):
        raise KeyMismatch(f"{len(meta['rows'])} rows named for vectors of shape {stack.shape}")
    entries = {row: {} for row in meta["rows"]}
    for name, start, shape in zip(meta["names"], meta["offsets"], meta["shapes"]):
        stop = start + math.prod(shape)
        if not 0 <= start <= stop <= stack.shape[1]:
            raise KeyMismatch(f"entry {name!r} lies outside the {stack.shape[1]}-entry vector")
        for row, vec in zip(meta["rows"], stack):
            entries[row][name] = vec[start:stop].reshape(shape).copy()
    return {row: ParamSet(row_entries, dict(meta["tags"]), dict(meta["trainable"]))
            for row, row_entries in entries.items()}
