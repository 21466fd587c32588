"""The eight aggregation strategies behind one interface.

Local-objective modifiers (fedprox, fedpxn, feddyn) act on the per-batch flat
gradient of a client round's parameter vector; server-update rules (fedavg,
fedbn, fedadam, fedadagrad, fedyogi) act on the round's client vectors (see
``params``) and aggregate whole vectors; the policy only sets how long a
prefix of the global is broadcast.  So fedbn/fedpxn keep the server's copy
of excluded norm entries as a weighted average for checkpoint purposes only;
client-held values stay authoritative and are never overwritten.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllClientsDiverged,
    ConfigError,
    KeyMismatch,
    MissingDynMemory,
    UninitializedOptState,
    check_real,
)
from .params import ExclusionPolicy, make_weights, weighted_average

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
    policy: ExclusionPolicy | None = None  # None: all_norm_excluded for fedbn/fedpxn, else none
    uniform_pseudo_grad: bool = False  # average deltas uniformly instead of n_k/n

    def __post_init__(self):
        if self.policy is None:
            self.policy = (ExclusionPolicy.ALL_NORM_EXCLUDED if self.algorithm in NORM_EXCLUDING
                           else ExclusionPolicy.NONE)
        try:
            self.policy = ExclusionPolicy(self.policy)
        except ValueError:
            raise ConfigError("strategy.policy", f"unknown policy {self.policy!r}")
        self.validate()

    def validate(self) -> None:
        for name in ("mu", "alpha", "eta_g", "beta1", "beta2", "gamma"):
            check_real(getattr(self, name), f"strategy.{name}")
        if not isinstance(self.uniform_pseudo_grad, bool):
            raise ConfigError("strategy.uniform_pseudo_grad", "must be true or false")
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
    global_params: np.ndarray  # read-only
    m: np.ndarray | None = None  # FedOpt moments over the trainable prefix
    v: np.ndarray | None = None
    round: int = 0


@dataclass
class ClientUpdate:
    client_id: int
    params_after: np.ndarray  # the client's trained vector, read-only
    n_k: int
    train_loss: float
    diverged: bool = False


@dataclass
class DynMemory:
    client_id: int
    prev_grad: np.ndarray | None = None  # flat, over the trainable prefix
    initialized: bool = False


def init_server_state(algorithm: str, w_0: np.ndarray, cfg: StrategyConfig,
                      n_train: int) -> ServerState:
    """The global ``w_0`` (a read-only copy); for the FedOpt family m = 0 and
    v = gamma^2 over the trainable prefix ``w_0[:n_train]``."""
    state = ServerState(global_params=w_0.copy(), round=0)
    state.global_params.flags.writeable = False
    if algorithm in FEDOPT_FAMILY:
        state.m = np.zeros(n_train)
        state.v = np.full(n_train, cfg.gamma**2)
    return state


def local_loss_grad(
    algorithm: str,
    base_grad: np.ndarray,
    w_local: np.ndarray,
    w_global: np.ndarray,
    norm_start: int,
    cfg: StrategyConfig,
    dyn: DynMemory | None = None,
) -> np.ndarray:
    """Apply the strategy's local-objective modification to a base gradient, in
    place.  ``base_grad`` covers the trainable prefix of the vectors ``w_local``
    and ``w_global`` (one plan's layout, checked once per client round), whose
    non-norm entries end at ``norm_start``."""
    if algorithm == "feddyn" and dyn is None:
        raise MissingDynMemory("feddyn requires DynMemory")

    if algorithm in ("fedavg", "fedbn") or algorithm in FEDOPT_FAMILY:
        return base_grad
    if algorithm in ("fedprox", "fedpxn"):
        if cfg.mu == 0.0:
            return base_grad
        k = norm_start if algorithm == "fedpxn" else base_grad.shape[0]  # fedpxn: no norm pull
        base_grad[:k] += cfg.mu * (w_local[:k] - w_global[:k])
        return base_grad
    if algorithm == "feddyn":
        k = base_grad.shape[0]
        base_grad += cfg.alpha * (w_local[:k] - w_global[:k])
        if dyn.initialized:
            base_grad -= dyn.prev_grad
        return base_grad
    raise ConfigError("strategy.algorithm", f"unknown algorithm {algorithm!r}")


def update_dyn_memory(dyn: DynMemory, epoch_mean_grad: np.ndarray) -> DynMemory:
    """Store the epoch-mean base gradient at the just-finished local solution."""
    if dyn.initialized and dyn.prev_grad.shape != epoch_mean_grad.shape:
        raise KeyMismatch("gradient layout changed between rounds")
    return DynMemory(
        client_id=dyn.client_id,
        prev_grad=epoch_mean_grad.copy(),
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
    vectors = [u.params_after for u in alive]
    w_t = server.global_params

    if algorithm in ("fedavg", "fedprox", "feddyn") or algorithm in NORM_EXCLUDING:
        # Weighted average of whole vectors.  Under fedbn/fedpxn the excluded
        # entries are a server-side convenience copy only and are never
        # broadcast back (the orchestrator broadcasts the policy's prefix).
        new_global = weighted_average(vectors, weights)
        new_global.flags.writeable = False
        return ServerState(global_params=new_global, round=server.round + 1)

    if algorithm in FEDOPT_FAMILY:
        if server.m is None or server.v is None:
            raise UninitializedOptState(f"{algorithm} requires initialized m, v")
        n = server.m.shape[0]  # the trainable prefix
        if cfg.uniform_pseudo_grad:
            d_weights = make_weights({u.client_id: 1 for u in alive})
        else:
            d_weights = weights
        delta = np.zeros(n)
        for vec, w in zip(vectors, d_weights):
            delta += w.weight * (vec[:n] - w_t[:n])
        m = cfg.beta1 * server.m + (1.0 - cfg.beta1) * delta
        d2 = delta * delta
        if algorithm == "fedadam":
            v = cfg.beta2 * server.v + (1.0 - cfg.beta2) * d2
        elif algorithm == "fedadagrad":
            v = server.v + d2
        else:  # fedyogi
            v = server.v - (1.0 - cfg.beta2) * d2 * np.sign(server.v - d2)
            floor = cfg.gamma**2
            clamped = int(np.sum(v < floor))
            if clamped:
                log.info("fedyogi clamped %d second-moment entries at gamma^2", clamped)
            v = np.maximum(v, floor)
        new_global = np.empty_like(w_t)
        new_global[:n] = w_t[:n] + cfg.eta_g * m / (np.sqrt(v) + cfg.gamma)
        if n < w_t.shape[0]:
            # running statistics carry no meaningful pseudo-gradient: plain average
            new_global[n:] = weighted_average([vec[n:] for vec in vectors], weights)
        new_global.flags.writeable = False
        return ServerState(global_params=new_global, m=m, v=v, round=server.round + 1)

    raise ConfigError("strategy.algorithm", f"unknown algorithm {algorithm!r}")


def broadcast_fragment(server: ServerState, k: int) -> np.ndarray:
    """What a client's round starts from: the first ``k`` entries of the
    global (``Plan.prefix`` of the policy), as a read-only view."""
    return server.global_params[:k]
