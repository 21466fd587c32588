"""The eight aggregation strategies behind one interface.

Local-objective modifiers (fedprox, fedpxn, feddyn) act on the per-batch flat
gradient of a client round's parameter vector.  The server rule reads the
round's clients themselves (their trained vectors, ``n_k`` and divergence
flags; see ``params``) and starts from one weighted average of the alive
clients' vectors: fedavg, fedprox, fedbn and fedpxn keep it whole, feddyn
weighs the clients uniformly and corrects the trainable prefix by its server
state, and the FedOpt family replaces the trainable prefix by its moment step,
so only the running statistics keep the average.  What a client takes of the
global is a prefix of the plan's vector, whose length the algorithm fixes
(``StrategyConfig.shared_prefix``): fedbn/fedpxn keep every norm entry local
(Li et al., ICLR 2021), so the server's copy of those entries is a weighted
average for checkpoint purposes only; client-held values stay authoritative
and are never overwritten.  The FedOpt moments use the fixed ``BETA1`` and
``BETA2`` of Reddi et al. (ICLR 2021), who tune ``eta_g`` and ``gamma``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    AllClientsDiverged,
    ConfigError,
    check_real,
    check_stated,
)
from .nn import Plan
from .params import make_weights, weighted_average

log = logging.getLogger(__name__)

# The StrategyConfig fields each algorithm reads, the hyperparameters its
# paper tunes: FedProx's mu (Li et al., MLSys 2020), FedDyn's alpha, and the
# FedOpt server rate eta_g and adaptivity tau (``gamma``, Reddi et al.).
KNOBS = {
    "fedavg": (), "fedprox": ("mu",), "fedbn": (), "fedpxn": ("mu",),
    "fedadam": ("eta_g", "gamma"), "fedadagrad": ("eta_g", "gamma"),
    "fedyogi": ("eta_g", "gamma"), "feddyn": ("alpha",),
}
ALGORITHMS = tuple(KNOBS)
FEDOPT_FAMILY = ("fedadam", "fedadagrad", "fedyogi")
NORM_EXCLUDING = ("fedbn", "fedpxn")
BETA1, BETA2 = 0.9, 0.99  # FedOpt momentum and second-moment decay


@dataclass
class StrategyConfig:
    """An algorithm and exactly the knobs ``KNOBS`` lists for it; a knob left
    at ``None`` is not stated."""
    algorithm: str
    mu: float | None = None     # fedprox / fedpxn; 0 drops the proximal term
    alpha: float | None = None  # feddyn
    eta_g: float | None = None  # fedopt server learning rate
    gamma: float | None = None  # fedopt adaptivity floor

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ConfigError("strategy.algorithm", f"unknown algorithm {self.algorithm!r}")
        check_stated(self, "strategy", self.algorithm, KNOBS[self.algorithm], {})
        for name in KNOBS[self.algorithm]:
            field, value = f"strategy.{name}", getattr(self, name)
            check_real(value, field)
            if value < 0 or (value == 0 and name != "mu"):  # only mu may be 0
                raise ConfigError(field, f"{name} must be {'>=' if name == 'mu' else '>'} 0")

    def shared_prefix(self, plan: Plan) -> int:
        """How many leading entries of a ``plan`` vector the server shares:
        the non-norm ones under fedbn/fedpxn, all of them otherwise."""
        return plan.n_non_norm if self.algorithm in NORM_EXCLUDING else plan.size


@dataclass
class ServerState:
    global_params: np.ndarray  # read-only
    m: np.ndarray | None = None  # FedOpt moments over the trainable prefix
    v: np.ndarray | None = None
    h: np.ndarray | None = None  # FedDyn's server state over the trainable prefix
    round: int = 0


def init_server_state(w_0: np.ndarray, cfg: StrategyConfig, n_train: int) -> ServerState:
    """The global ``w_0`` (a read-only copy); over the trainable prefix
    ``w_0[:n_train]``, m = 0 and v = gamma^2 for the FedOpt family and h = 0
    for feddyn."""
    state = ServerState(global_params=w_0.copy(), round=0)
    state.global_params.flags.writeable = False
    if cfg.algorithm in FEDOPT_FAMILY:
        state.m = np.zeros(n_train)
        state.v = np.full(n_train, cfg.gamma**2)
    elif cfg.algorithm == "feddyn":
        state.h = np.zeros(n_train)
    return state


def local_loss_grad(
    base_grad: np.ndarray,
    w_local: np.ndarray,
    w_global: np.ndarray,
    norm_start: int,
    cfg: StrategyConfig,
    dyn: np.ndarray | None = None,
) -> np.ndarray:
    """Apply the strategy's local-objective modification to a base gradient, in
    place.  ``base_grad`` covers the trainable prefix of the vectors ``w_local``
    and ``w_global`` (both in one plan's layout), whose non-norm entries end at
    ``norm_start``; ``dyn`` is FedDyn's client memory ``g_k`` over the same
    prefix, which ``ClientState.create`` gives every feddyn client."""
    algorithm = cfg.algorithm
    if algorithm in ("fedavg", "fedbn") or algorithm in FEDOPT_FAMILY:
        return base_grad
    if algorithm in ("fedprox", "fedpxn"):
        if cfg.mu == 0.0:
            return base_grad
        k = norm_start if algorithm == "fedpxn" else base_grad.shape[0]  # fedpxn: no norm pull
        base_grad[:k] += cfg.mu * (w_local[:k] - w_global[:k])
        return base_grad
    # feddyn: the gradient of F_k(w) - <g_k, w> + alpha/2 |w - w_global|^2
    k = base_grad.shape[0]
    base_grad += cfg.alpha * (w_local[:k] - w_global[:k])
    base_grad -= dyn
    return base_grad


def update_dyn_memory(g: np.ndarray, w_local: np.ndarray, w_ref: np.ndarray,
                      alpha: float) -> np.ndarray:
    """FedDyn's client memory after a round (Acar et al., ICLR 2021, Algorithm 1):
    a new ``g_k = g_k - alpha * (w_local - w_ref)`` over the trainable prefix,
    where ``w_ref`` is the vector the round started from."""
    k = g.shape[0]
    return g - alpha * (w_local[:k] - w_ref[:k])


def server_aggregate(server: ServerState, clients: list, cfg: StrategyConfig) -> ServerState:
    """One aggregation step over the round's clients, ``orchestrator.ClientState``s
    after local training whose ``params``, ``n_k`` and ``diverged`` it reads;
    returns a fresh ServerState with round+1, which like ``init_server_state``'s
    holds the algorithm's ``m``/``v`` or ``h``.  Every rule starts from one average
    of the alive clients' vectors, summed in the order given (the run's, by id)."""
    algorithm = cfg.algorithm
    alive = [c for c in clients if not c.diverged]
    if not alive:
        raise AllClientsDiverged("no non-diverged client updates this round")
    vectors = [c.params for c in alive]
    weights = make_weights([1 if algorithm == "feddyn" else c.n_k for c in alive])
    # Under fedbn/fedpxn the excluded entries of the average are a server-side
    # convenience copy only and are never broadcast back (the orchestrator
    # broadcasts the shared prefix).
    new_global = weighted_average(vectors, weights)
    w_t = server.global_params
    m = v = h = None

    if algorithm == "feddyn":
        # Acar et al. (ICLR 2021), Algorithm 1: h <- h - (alpha/m) sum_k
        # (theta_k - theta^{t-1}) over the m clients of the round, and theta^t
        # is the uniform mean of the client vectors minus h / alpha.  h covers
        # the trainable prefix only; running statistics are just averaged.
        n = server.h.shape[0]
        drift = np.zeros(n)
        for vec in vectors:
            drift += vec[:n] - w_t[:n]
        h = server.h - cfg.alpha / len(clients) * drift
        new_global[:n] -= h / cfg.alpha
    elif algorithm in FEDOPT_FAMILY:
        # the trainable prefix steps by the moments; running statistics carry
        # no meaningful pseudo-gradient and keep the average
        n = server.m.shape[0]
        delta = np.zeros(n)
        for vec, w in zip(vectors, weights):
            delta += w * (vec[:n] - w_t[:n])
        m = BETA1 * server.m + (1.0 - BETA1) * delta
        d2 = delta * delta
        if algorithm == "fedadam":
            v = BETA2 * server.v + (1.0 - BETA2) * d2
        elif algorithm == "fedadagrad":
            v = server.v + d2
        else:  # fedyogi
            v = server.v - (1.0 - BETA2) * d2 * np.sign(server.v - d2)
            floor = cfg.gamma**2
            clamped = int(np.sum(v < floor))
            if clamped:
                log.info("fedyogi clamped %d second-moment entries at gamma^2", clamped)
            v = np.maximum(v, floor)
        new_global[:n] = w_t[:n] + cfg.eta_g * m / (np.sqrt(v) + cfg.gamma)
    new_global.flags.writeable = False
    return ServerState(global_params=new_global, m=m, v=v, h=h, round=server.round + 1)


def broadcast_fragment(server: ServerState, k: int) -> np.ndarray:
    """What a client takes of the global: its first ``k`` entries (the
    ``StrategyConfig.shared_prefix``), as a read-only view."""
    return server.global_params[:k]
