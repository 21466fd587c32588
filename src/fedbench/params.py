"""Parameter containers, exclusion policies and aggregation primitives.

Inside a run, parameters are flat float64 vectors in one ``nn.Plan``'s layout:
trainable non-norm entries, then norm gains and biases (up to ``n_train``),
then batch-norm running statistics.  The server's global, its FedOpt moments,
every client's vector and every evaluation vector are such vectors, and the
aggregation and drift primitives below work on them.  A ParamSet, an ordered
map of named arrays with a tag (``norm`` or ``non_norm``) and a trainable
flag per entry, exists only at the edges of a run: ``init_params`` returns
one, which ``Plan.pack`` copies into a vector once, and each checkpoint is a
ParamSet of views (``Plan.publish``) built only when ``save_paramset``
writes it.

A published vector is read-only and never written again, so vectors are
shared freely: the broadcast is a view of the global, an evaluation vector
is a view of the global when the policy shares all of it, and the in-memory
checkpoint snapshots hold vectors by reference until the run ends.  The one
in-place writer is a client round, which trains a private copy of its
round-start vector and then publishes it read-only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import KeyMismatch, WeightSumViolation

NORM = "norm"
NON_NORM = "non_norm"

_FORMAT_VERSION = 1

WEIGHT_SUM_TOL = 1e-12


class ExclusionPolicy(str, Enum):
    """Which norm-layer entries are excluded from server aggregation.

    ``none``                aggregate everything.
    ``all_norm_excluded``   exclude every norm-tagged entry (gains, biases,
                            running stats).
    ``stats_only_excluded`` aggregate norm gains/biases, exclude running stats.
    ``rescaling_aggregated`` aggregate norm gains/biases, exclude running
                            stats; stat-free norm layers (LN/GN) are fully
                            aggregated.  Coincides with stats_only_excluded
                            for models without batch norm.

    Each shares a prefix of a plan's vector: all of it, the non-norm entries,
    or (the last two) the trainable entries; see ``Plan.prefix``.
    """

    NONE = "none"
    ALL_NORM_EXCLUDED = "all_norm_excluded"
    STATS_ONLY_EXCLUDED = "stats_only_excluded"
    RESCALING_AGGREGATED = "rescaling_aggregated"


@dataclass
class ParamSet:
    """Named, tagged parameter tensors (all float64)."""

    entries: dict[str, np.ndarray]
    tags: dict[str, str]
    trainable: dict[str, bool]

    def __post_init__(self):
        for name in self.entries:
            if name not in self.tags or name not in self.trainable:
                raise KeyMismatch(f"entry {name!r} missing tag or trainable flag")

    def names(self) -> list[str]:
        return list(self.entries)

    # a run never calls this; it stays for perfbench's ``params.copy`` span and the test oracles
    def copy(self) -> "ParamSet":
        return ParamSet(
            entries={k: v.copy() for k, v in self.entries.items()},
            tags=dict(self.tags),
            trainable=dict(self.trainable),
        )

    def trainable_names(self) -> list[str]:
        return [n for n in self.entries if self.trainable[n]]


@dataclass
class ClientWeight:
    client_id: int
    n_k: int
    weight: float


def make_weights(sizes: dict[int, int]) -> list[ClientWeight]:
    """Data-proportional weights n_k / n for a cohort."""
    total = sum(sizes.values())
    return [ClientWeight(cid, n_k, n_k / total) for cid, n_k in sizes.items()]


def weighted_average(vectors: list[np.ndarray], weights: list[ClientWeight]) -> np.ndarray:
    """Elementwise convex combination ``sum_k w_k * v_k`` of equal-length
    vectors, accumulated in list order."""
    if not vectors:
        raise KeyMismatch("need at least one vector")
    if len(vectors) != len(weights):
        raise KeyMismatch("weights/vectors length mismatch")
    total = sum(w.weight for w in weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumViolation(f"weights sum to {total!r}, expected 1")
    if any(v.shape != vectors[0].shape for v in vectors):
        raise KeyMismatch("vectors have different lengths")
    acc = np.zeros_like(vectors[0])
    for v, w in zip(vectors, weights):
        acc += w.weight * v
    return acc


def l2_distance_excluding_norm(a: np.ndarray, b: np.ndarray,
                               slots: list[tuple[int, int]]) -> float:
    """Squared L2 distance over the non-norm entries of two vectors (diagnostic
    of local drift).  ``slots`` are the (start, stop) of each non-norm entry
    (``Plan.non_norm_slots``); each entry's squares are summed on their own and
    the sums added in name order, which fixes the bits."""
    if a.shape != b.shape:
        raise KeyMismatch("vectors have different lengths")
    diff = a - b
    squares = diff * diff
    total = 0.0
    for start, stop in slots:
        total += float(np.add.reduce(squares[start:stop]))
    return total


# ---------------------------------------------------------------------------
# serialization (checkpoint format)

def save_paramset(params: ParamSet, path) -> None:
    """Write a ParamSet; float64 payloads round-trip bitwise."""
    meta = {
        "format_version": _FORMAT_VERSION,
        "names": params.names(),
        "tags": params.tags,
        "trainable": params.trainable,
    }
    arrays = {f"v_{i}": params.entries[n] for i, n in enumerate(params.names())}
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_paramset(path) -> ParamSet:
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        if meta.get("format_version") != _FORMAT_VERSION:
            raise KeyMismatch(f"unsupported checkpoint version {meta.get('format_version')}")
        entries = {n: data[f"v_{i}"].copy() for i, n in enumerate(meta["names"])}
    return ParamSet(entries=entries, tags=meta["tags"], trainable=meta["trainable"])
