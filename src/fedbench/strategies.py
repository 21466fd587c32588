"""The eight aggregation strategies behind one interface.

Local-objective modifiers (fedprox, fedpxn, feddyn) act on per-batch
gradients; server-update rules (fedavg, fedbn, fedadam, fedadagrad, fedyogi)
act on the round's client updates.  fedbn/fedpxn keep the server's copy of
excluded norm entries as a weighted average for checkpoint/eval purposes
only; client-held values stay authoritative and are never overwritten.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllClientsDiverged,
    ConfigError,
    KeyMismatch,
    MissingDynMemory,
    UninitializedOptState,
)
from .params import (
    ExclusionPolicy,
    GradSet,
    ParamSet,
    make_weights,
    partition_names,
    weighted_average,
)

log = logging.getLogger(__name__)

ALGORITHMS = (
    "fedavg", "fedprox", "fedbn", "fedpxn",
    "fedadam", "fedadagrad", "fedyogi", "feddyn",
)
FEDOPT_FAMILY = ("fedadam", "fedadagrad", "fedyogi")
NORM_EXCLUDING = ("fedbn", "fedpxn")
NORM_POLICIES = (
    ExclusionPolicy.ALL_NORM_EXCLUDED,
    ExclusionPolicy.STATS_ONLY_EXCLUDED,
    ExclusionPolicy.RESCALING_AGGREGATED,
)


@dataclass
class StrategyConfig:
    algorithm: str
    mu: float = 0.0           # fedprox / fedpxn
    alpha: float = 0.01       # feddyn
    eta_g: float = 0.01       # fedopt server learning rate
    beta1: float = 0.9        # fedopt momentum
    beta2: float = 0.99       # fedopt second moment
    gamma: float = 0.001      # fedopt adaptivity floor
    policy: ExclusionPolicy = ExclusionPolicy.NONE
    uniform_pseudo_grad: bool = False  # average deltas uniformly instead of n_k/n

    def __post_init__(self):
        if isinstance(self.policy, str):
            self.policy = ExclusionPolicy(self.policy)
        self.validate()

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError("strategy.algorithm", f"unknown algorithm {self.algorithm!r}")
        if self.algorithm in NORM_EXCLUDING:
            if self.policy not in NORM_POLICIES:
                raise ConfigError(
                    "strategy.policy",
                    f"{self.algorithm} requires a norm-excluding policy, got {self.policy.value}",
                )
        elif self.policy != ExclusionPolicy.NONE:
            raise ConfigError(
                "strategy.policy", f"{self.algorithm} requires policy none"
            )
        if self.mu < 0:
            raise ConfigError("strategy.mu", "mu must be >= 0")
        if self.algorithm == "feddyn" and self.alpha <= 0:
            raise ConfigError("strategy.alpha", "alpha must be > 0")
        if self.algorithm in FEDOPT_FAMILY:
            if self.eta_g <= 0:
                raise ConfigError("strategy.eta_g", "eta_g must be > 0")
            if not (0 <= self.beta1 < 1) or not (0 <= self.beta2 < 1):
                raise ConfigError("strategy.beta1", "betas must lie in [0, 1)")
            if self.gamma <= 0:
                raise ConfigError("strategy.gamma", "gamma must be > 0")


@dataclass
class ServerState:
    global_params: ParamSet
    m: GradSet | None = None
    v: GradSet | None = None
    round: int = 0


@dataclass
class ClientUpdate:
    client_id: int
    params_after: ParamSet
    n_k: int
    train_loss: float
    diverged: bool = False


@dataclass
class DynMemory:
    client_id: int
    prev_grad: GradSet = field(default_factory=dict)
    initialized: bool = False


def init_server_state(algorithm: str, w_0: ParamSet, cfg: StrategyConfig) -> ServerState:
    """m = 0, v = gamma^2 elementwise for the FedOpt family; plain otherwise."""
    state = ServerState(global_params=w_0.copy(), round=0)
    if algorithm in FEDOPT_FAMILY:
        names = w_0.trainable_names()
        state.m = {n: np.zeros_like(w_0.entries[n]) for n in names}
        state.v = {n: np.full_like(w_0.entries[n], cfg.gamma**2) for n in names}
    return state


def local_loss_grad(
    algorithm: str,
    base_grad: GradSet,
    w_local: ParamSet,
    w_global: ParamSet,
    cfg: StrategyConfig,
    dyn: DynMemory | None = None,
) -> GradSet:
    """Apply the strategy's local-objective modification to a base gradient."""
    if algorithm == "feddyn" and dyn is None:
        raise MissingDynMemory("feddyn requires DynMemory")
    if not w_local.same_keying(w_global):
        raise KeyMismatch("local/global ParamSets have different keying")

    if algorithm in ("fedavg", "fedbn") or algorithm in FEDOPT_FAMILY:
        return base_grad
    if algorithm in ("fedprox", "fedpxn"):
        if cfg.mu == 0.0:
            return base_grad
        out = dict(base_grad)
        for name in base_grad:
            if algorithm == "fedpxn" and w_local.tags[name] == "norm":
                continue
            out[name] = base_grad[name] + cfg.mu * (
                w_local.entries[name] - w_global.entries[name]
            )
        return out
    if algorithm == "feddyn":
        out = {}
        for name in base_grad:
            g = base_grad[name] + cfg.alpha * (
                w_local.entries[name] - w_global.entries[name]
            )
            if dyn.initialized and name in dyn.prev_grad:
                g = g - dyn.prev_grad[name]
            out[name] = g
        return out
    raise ConfigError("strategy.algorithm", f"unknown algorithm {algorithm!r}")


def update_dyn_memory(dyn: DynMemory, epoch_mean_grad: GradSet) -> DynMemory:
    """Store the epoch-mean base gradient at the just-finished local solution."""
    if dyn.initialized and set(dyn.prev_grad) != set(epoch_mean_grad):
        raise KeyMismatch("gradient keys changed between rounds")
    return DynMemory(
        client_id=dyn.client_id,
        prev_grad={k: v.copy() for k, v in epoch_mean_grad.items()},
        initialized=True,
    )


def server_aggregate(
    algorithm: str,
    server: ServerState,
    updates: list[ClientUpdate],
    cfg: StrategyConfig,
) -> ServerState:
    """One aggregation step; returns a fresh ServerState with round+1."""
    alive = [u for u in updates if not u.diverged]
    if not alive:
        raise AllClientsDiverged("no non-diverged client updates this round")
    alive = sorted(alive, key=lambda u: u.client_id)
    weights = make_weights({u.client_id: u.n_k for u in alive})
    sets = [u.params_after for u in alive]
    w_t = server.global_params

    if algorithm in ("fedavg", "fedprox", "feddyn") or algorithm in NORM_EXCLUDING:
        # Weighted average over every name.  Under fedbn/fedpxn the excluded
        # names are a server-side convenience copy only and are never
        # broadcast back (the orchestrator broadcasts the aggregated fragment).
        new_global = w_t.copy()
        new_global.overwrite(weighted_average(sets, weights))
        return ServerState(global_params=new_global, round=server.round + 1)

    if algorithm in FEDOPT_FAMILY:
        if server.m is None or server.v is None:
            raise UninitializedOptState(f"{algorithm} requires initialized m, v")
        names = w_t.trainable_names()
        if cfg.uniform_pseudo_grad:
            d_weights = make_weights({u.client_id: 1 for u in alive})
        else:
            d_weights = weights
        delta: GradSet = {n: np.zeros_like(w_t.entries[n]) for n in names}
        for u, w in zip(alive, d_weights):
            for n in names:
                delta[n] += w.weight * (u.params_after.entries[n] - w_t.entries[n])
        m = {n: cfg.beta1 * server.m[n] + (1.0 - cfg.beta1) * delta[n] for n in names}
        v: GradSet = {}
        clamped = 0
        for n in names:
            d2 = delta[n] * delta[n]
            if algorithm == "fedadam":
                v[n] = cfg.beta2 * server.v[n] + (1.0 - cfg.beta2) * d2
            elif algorithm == "fedadagrad":
                v[n] = server.v[n] + d2
            else:  # fedyogi
                vn = server.v[n] - (1.0 - cfg.beta2) * d2 * np.sign(server.v[n] - d2)
                floor = cfg.gamma**2
                clamped += int(np.sum(vn < floor))
                v[n] = np.maximum(vn, floor)
        if clamped:
            log.info("fedyogi clamped %d second-moment entries at gamma^2", clamped)
        new_global = w_t.copy()
        for n in names:
            new_global.entries[n] = w_t.entries[n] + cfg.eta_g * m[n] / (np.sqrt(v[n]) + cfg.gamma)
        # running statistics carry no meaningful pseudo-gradient: plain average
        stat_names = [n for n in w_t.names() if not w_t.trainable[n]]
        if stat_names:
            new_global.overwrite(weighted_average(sets, weights, over=set(stat_names)))
        return ServerState(global_params=new_global, m=m, v=v, round=server.round + 1)

    raise ConfigError("strategy.algorithm", f"unknown algorithm {algorithm!r}")


def broadcast_fragment(server: ServerState, cfg: StrategyConfig) -> dict[str, np.ndarray]:
    """The entries a client's round starts from, respecting the policy."""
    _, aggregated = partition_names(server.global_params, cfg.policy)
    return server.global_params.fragment(sorted(aggregated))
