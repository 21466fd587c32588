"""Parameter containers, norm/non-norm partitioning and aggregation primitives.

A ParamSet is an ordered map of named float64 arrays.  Every entry carries a
tag (``norm`` for normalization-layer parameters, ``non_norm`` otherwise) and
a trainable flag; running statistics are norm-tagged and non-trainable, so
exclusion policies govern them uniformly.

Entry arrays are never written in place, and a ParamSet's ``tags`` and
``trainable`` maps are never edited once it is built.  A changed entry gets
a fresh array assigned to its name: ``overwrite`` and aggregation assign
newly computed arrays.  So ParamSets may share arrays and maps, and every
user relies on it: the broadcast fragment holds the global's own arrays, a
server step and the evaluation sets start from a ``shallow_copy``, and the
orchestrator's in-memory checkpoint snapshots hold the globals and the
clients' sets by reference until the run ends.

The one sanctioned in-place writer is a client round.  It copies the
client's entries and the broadcast fragment into a fresh private vector
(``nn.Plan.pack``), trains that vector in place and, when the round ends,
publishes it read-only as views in the client's ParamSet and the round's
update; nothing writes it after that.  Other code that must write into an
entry's array must own a ``copy()`` of the ParamSet.
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

    def copy(self) -> "ParamSet":
        return ParamSet(
            entries={k: v.copy() for k, v in self.entries.items()},
            tags=dict(self.tags),
            trainable=dict(self.trainable),
        )

    def shallow_copy(self) -> "ParamSet":
        """A new entries dict over the same arrays and maps."""
        return ParamSet(dict(self.entries), self.tags, self.trainable)

    def trainable_names(self) -> list[str]:
        return [n for n in self.entries if self.trainable[n]]

    def overwrite(self, fragment: dict[str, np.ndarray]) -> None:
        """Assign the arrays of ``fragment`` to the entries it names."""
        for name, value in fragment.items():
            if name not in self.entries:
                raise KeyMismatch(f"unknown entry {name!r}")
            if self.entries[name].shape != value.shape:
                raise KeyMismatch(f"shape mismatch for {name!r}")
            self.entries[name] = value

    def same_keying(self, other: "ParamSet") -> bool:
        return (
            list(self.entries) == list(other.entries)
            and all(self.entries[n].shape == other.entries[n].shape for n in self.entries)
        )


# A GradSet maps the trainable entries of a ParamSet to arrays of their
# shapes (the FedOpt server's moments).  Plain dicts keep the call sites light.
GradSet = dict[str, np.ndarray]


@dataclass
class ClientWeight:
    client_id: int
    n_k: int
    weight: float


def make_weights(sizes: dict[int, int]) -> list[ClientWeight]:
    """Data-proportional weights n_k / n for a cohort."""
    total = sum(sizes.values())
    return [ClientWeight(cid, n_k, n_k / total) for cid, n_k in sizes.items()]


def partition_names(params: ParamSet, policy: ExclusionPolicy) -> tuple[set, set]:
    """Split names into (excluded, aggregated) under the given policy."""
    names = set(params.entries)
    if policy == ExclusionPolicy.NONE:
        excluded = set()
    elif policy == ExclusionPolicy.ALL_NORM_EXCLUDED:
        excluded = {n for n in names if params.tags[n] == NORM}
    elif policy in (ExclusionPolicy.STATS_ONLY_EXCLUDED, ExclusionPolicy.RESCALING_AGGREGATED):
        excluded = {n for n in names if params.tags[n] == NORM and not params.trainable[n]}
    else:  # pragma: no cover
        raise ValueError(f"unknown policy {policy}")
    return excluded, names - excluded


def weighted_average(
    sets: list[ParamSet], weights: list[ClientWeight], over=None
) -> dict[str, np.ndarray]:
    """Elementwise convex combination of the named entries.

    Returns a fragment containing only names in ``over`` (all names when
    ``over`` is None).
    """
    if not sets:
        raise KeyMismatch("need at least one ParamSet")
    if len(sets) != len(weights):
        raise KeyMismatch("weights/sets length mismatch")
    total = sum(w.weight for w in weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumViolation(f"weights sum to {total!r}, expected 1")
    first = sets[0]
    for s in sets[1:]:
        if not first.same_keying(s):
            raise KeyMismatch("ParamSets have different keying")
    if over is None:
        over = first.names()
    out: dict[str, np.ndarray] = {}
    for name in first.names():
        if name not in over:
            continue
        acc = np.zeros_like(first.entries[name])
        for s, w in zip(sets, weights):
            acc += w.weight * s.entries[name]
        out[name] = acc
    return out


def l2_distance_excluding_norm(a: ParamSet, b: ParamSet) -> float:
    """Squared L2 distance over non-norm entries (diagnostic of local drift)."""
    if not a.same_keying(b):
        raise KeyMismatch("ParamSets have different keying")
    total = 0.0
    for name in a.names():
        if a.tags[name] == NORM:
            continue
        diff = a.entries[name] - b.entries[name]
        total += float(np.sum(diff * diff))
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
