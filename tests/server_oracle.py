"""The dict-based server, drift, evaluation-vector and AUROC code, kept as an oracle.

These are aggregation, the FedOpt server rules, the drift diagnostic, the
name partition into shared and local entries and the per-client evaluation
parameters as they were written over named ParamSet entries, the FedDyn server rule written the same
way, and AUROC as one midrank sort per class.  ``test_server_bitwise.py`` checks that the vector code of
``fedbench.params``, ``fedbench.strategies`` and ``fedbench.orchestrator``
and the one-sort ``metrics.auroc`` give the same bits as this code.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from fedbench.errors import AllClientsDiverged, KeyMismatch, SingleClass, WeightSumViolation
from fedbench.params import NORM, WEIGHT_SUM_TOL, ParamSet, make_weights
from fedbench.strategies import FEDOPT_FAMILY, NORM_EXCLUDING

log = logging.getLogger(__name__)

GradSet = dict[str, np.ndarray]
BETA1, BETA2 = 0.9, 0.99  # the FedOpt decays of Reddi et al. (ICLR 2021)


def same_keying(a: ParamSet, b: ParamSet) -> bool:
    return (
        list(a.entries) == list(b.entries)
        and all(a.entries[n].shape == b.entries[n].shape for n in a.entries)
    )


def shallow_copy(params: ParamSet) -> ParamSet:
    return ParamSet(dict(params.entries), params.tags, params.trainable)


def overwrite(params: ParamSet, fragment: dict[str, np.ndarray]) -> None:
    for name, value in fragment.items():
        if name not in params.entries:
            raise KeyMismatch(f"unknown entry {name!r}")
        if params.entries[name].shape != value.shape:
            raise KeyMismatch(f"shape mismatch for {name!r}")
        params.entries[name] = value


def partition_names(params: ParamSet, algorithm: str) -> tuple[set, set]:
    """Split names into (excluded, aggregated): fedbn/fedpxn keep every norm
    entry local, the other algorithms share everything."""
    names = set(params.entries)
    if algorithm in NORM_EXCLUDING:
        excluded = {n for n in names if params.tags[n] == NORM}
    else:
        excluded = set()
    return excluded, names - excluded


def weighted_average(sets: list[ParamSet], weights, over=None) -> dict[str, np.ndarray]:
    if not sets:
        raise KeyMismatch("need at least one ParamSet")
    if len(sets) != len(weights):
        raise KeyMismatch("weights/sets length mismatch")
    total = sum(weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise WeightSumViolation(f"weights sum to {total!r}, expected 1")
    first = sets[0]
    for s in sets[1:]:
        if not same_keying(first, s):
            raise KeyMismatch("ParamSets have different keying")
    if over is None:
        over = list(first.entries)
    out: dict[str, np.ndarray] = {}
    for name in first.entries:
        if name not in over:
            continue
        acc = np.zeros_like(first.entries[name])
        for s, w in zip(sets, weights):
            acc += w * s.entries[name]
        out[name] = acc
    return out


def l2_distance_excluding_norm(a: ParamSet, b: ParamSet) -> float:
    if not same_keying(a, b):
        raise KeyMismatch("ParamSets have different keying")
    total = 0.0
    for name in a.entries:
        if a.tags[name] == NORM:
            continue
        diff = a.entries[name] - b.entries[name]
        total += float(np.sum(diff * diff))
    return total


@dataclass
class ServerState:
    global_params: ParamSet
    m: GradSet | None = None
    v: GradSet | None = None
    h: GradSet | None = None
    round: int = 0


@dataclass
class ClientUpdate:
    client_id: int
    params_after: ParamSet
    n_k: int
    diverged: bool = False


def init_server_state(algorithm: str, w_0: ParamSet, cfg) -> ServerState:
    state = ServerState(global_params=w_0.copy(), round=0)
    if algorithm in FEDOPT_FAMILY:
        names = [n for n in w_0.entries if w_0.trainable[n]]
        state.m = {n: np.zeros_like(w_0.entries[n]) for n in names}
        state.v = {n: np.full_like(w_0.entries[n], cfg.gamma**2) for n in names}
    elif algorithm == "feddyn":
        state.h = {n: np.zeros_like(v) for n, v in w_0.entries.items() if w_0.trainable[n]}
    return state


def server_aggregate(algorithm: str, server: ServerState, updates: list[ClientUpdate],
                     cfg) -> ServerState:
    alive = [u for u in updates if not u.diverged]
    if not alive:
        raise AllClientsDiverged("no non-diverged client updates this round")
    alive = sorted(alive, key=lambda u: u.client_id)
    weights = make_weights([u.n_k for u in alive])
    sets = [u.params_after for u in alive]
    w_t = server.global_params

    if algorithm == "feddyn":
        names = [n for n in w_t.entries if w_t.trainable[n]]
        h = {}
        for n in names:
            drift = np.zeros_like(w_t.entries[n])
            for u in alive:
                drift += u.params_after.entries[n] - w_t.entries[n]
            h[n] = server.h[n] - cfg.alpha / len(updates) * drift
        new_global = shallow_copy(w_t)
        overwrite(new_global, weighted_average(sets, make_weights([1] * len(alive))))
        for n in names:
            new_global.entries[n] = new_global.entries[n] - h[n] / cfg.alpha
        return ServerState(global_params=new_global, h=h, round=server.round + 1)

    if algorithm in ("fedavg", "fedprox") or algorithm in NORM_EXCLUDING:
        new_global = shallow_copy(w_t)
        overwrite(new_global, weighted_average(sets, weights))
        return ServerState(global_params=new_global, round=server.round + 1)

    names = [n for n in w_t.entries if w_t.trainable[n]]
    delta: GradSet = {n: np.zeros_like(w_t.entries[n]) for n in names}
    for u, w in zip(alive, weights):
        for n in names:
            delta[n] += w * (u.params_after.entries[n] - w_t.entries[n])
    m = {n: BETA1 * server.m[n] + (1.0 - BETA1) * delta[n] for n in names}
    v: GradSet = {}
    for n in names:
        d2 = delta[n] * delta[n]
        if algorithm == "fedadam":
            v[n] = BETA2 * server.v[n] + (1.0 - BETA2) * d2
        elif algorithm == "fedadagrad":
            v[n] = server.v[n] + d2
        else:  # fedyogi
            vn = server.v[n] - (1.0 - BETA2) * d2 * np.sign(server.v[n] - d2)
            v[n] = np.maximum(vn, cfg.gamma**2)
    new_global = shallow_copy(w_t)
    for n in names:
        new_global.entries[n] = w_t.entries[n] + cfg.eta_g * m[n] / (np.sqrt(v[n]) + cfg.gamma)
    stat_names = [n for n in w_t.entries if not w_t.trainable[n]]
    if stat_names:
        overwrite(new_global, weighted_average(sets, weights, over=set(stat_names)))
    return ServerState(global_params=new_global, m=m, v=v, round=server.round + 1)


def broadcast_fragment(server: ServerState, algorithm: str) -> dict[str, np.ndarray]:
    _, aggregated = partition_names(server.global_params, algorithm)
    return {n: server.global_params.entries[n] for n in sorted(aggregated)}


def eval_params(client_params: ParamSet, server: ServerState, algorithm: str) -> ParamSet:
    """A client's post-aggregation parameters (also its next round's start)."""
    merged = shallow_copy(client_params)
    overwrite(merged, broadcast_fragment(server, algorithm))
    return merged


def _midranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks (1-based) from one stable argsort; ties share the mean
    of their ranks."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    run_start = np.ones(len(values), dtype=bool)
    run_start[1:] = sorted_vals[1:] != sorted_vals[:-1]
    starts = np.flatnonzero(run_start)
    ends = np.append(starts[1:], len(values)) - 1
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def auroc(scores, labels) -> float:
    """Midranks of one sort per class; the macro mean for 2-D scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim == 2:
        n, c = scores.shape
        vals = []
        for cls in range(c):
            binary = (labels == cls).astype(int)
            if binary.sum() in (0, n):
                continue
            vals.append(auroc(scores[:, cls], binary))
        if not vals:
            raise SingleClass("no class with both outcomes present")
        return float(np.mean(vals))
    pos = labels == 1
    n_pos, n_neg = int(pos.sum()), int((~pos).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("AUROC needs both classes present")
    ranks = _midranks(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
