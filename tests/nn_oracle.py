"""The pre-optimisation numpy code of the local training step, kept as an oracle.

These are the initialisation, forward, backward and optimizer functions as
they were written with the ``np.mean``/``np.var``/``np.sum``/``np.max``
wrappers, per-step one-hot targets, a full ``ParamSet.copy()`` per optimizer
step and per-entry Adam moments, over named ParamSet entries; with them the
per-entry running stats update and local objectives.  ``test_bitwise.py``
checks that the layer plan of ``fedbench.nn`` and the orchestrator's training
loop, which work on one flat vector, give the same bits as this code;
``to_paramset`` and ``to_vector`` translate between the two forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fedbench.errors import (
    DegenerateBatch,
    KeyMismatch,
    NonFiniteLoss,
    ShapeMismatch,
    StaleCache,
)
from fedbench.nn import BN_MOMENTUM, NORM_EPSILON, NORM_KINDS, Batch, ModelSpec
from fedbench.params import NON_NORM, NORM, ParamSet
from fedbench.strategies import FEDOPT_FAMILY

GradSet = dict[str, np.ndarray]


@dataclass
class ForwardCache:
    params: ParamSet
    mode: str
    layer_caches: list = field(default_factory=list)
    batch_size: int = 0
    updated_running_stats: dict = field(default_factory=dict)


def init_params(spec: ModelSpec, seed: int) -> ParamSet:
    """Fresh parameters entry by entry in layer order: scaled-normal weights,
    zero biases and running means, unit gains and running variances."""
    rng = np.random.default_rng(seed)
    entries, tags = {}, {}
    width = spec.input_dim
    for i, layer in enumerate(spec.layers):
        prefix = f"layer{i}"
        if layer.kind == "dense":
            shape = (width, layer.width)
            entries[f"{prefix}.weight"] = rng.normal(0.0, 1.0 / np.sqrt(width), shape)
            width = layer.width
            entries[f"{prefix}.bias"] = np.zeros(width)
            tags[f"{prefix}.weight"] = tags[f"{prefix}.bias"] = NON_NORM
        elif layer.kind in NORM_KINDS:
            names = [f"{prefix}.gain", f"{prefix}.bias"]
            entries[names[0]], entries[names[1]] = np.ones(width), np.zeros(width)
            if layer.kind == "batch_norm":
                names += [f"{prefix}.running_mean", f"{prefix}.running_var"]
                entries[names[2]], entries[names[3]] = np.zeros(width), np.ones(width)
            tags.update(dict.fromkeys(names, NORM))
    trainable = {n: not n.endswith((".running_mean", ".running_var")) for n in entries}
    return ParamSet(entries=entries, tags=tags, trainable=trainable)


def to_paramset(plan, vec: np.ndarray) -> ParamSet:
    """A copy of the plan vector ``vec`` as named, tagged entries."""
    return ParamSet(plan.entries(vec.copy()), plan.tags, plan.trainable)


def to_vector(plan, named: dict[str, np.ndarray]) -> np.ndarray:
    """Named arrays (a ParamSet's entries, or moments over the trainable ones)
    concatenated in the plan's vector order."""
    return np.concatenate([named[n] for n in plan.slots if n in named], axis=None)


def norm_forward(kind, x, gain, bias, running_stats, mode, epsilon, groups=1, momentum=BN_MOMENTUM):
    """Normalize ``x`` and return (y, updated_running_stats, cache).

    BN train mode normalizes per feature over the batch and moves the running
    mean/var by an EMA step; eval mode uses the stored running stats.  LN/GN
    normalize per example and never touch running stats.
    """
    if kind == "batch_norm":
        if mode == "train":
            if x.shape[0] < 2:
                raise DegenerateBatch("batch_norm train mode needs batch size >= 2")
            mean = np.mean(x, axis=0)
            var = np.var(x, axis=0)  # biased (1/N)
            run_mean, run_var = running_stats
            new_stats = (
                (1.0 - momentum) * run_mean + momentum * mean,
                (1.0 - momentum) * run_var + momentum * var,
            )
        else:
            mean, var = running_stats
            new_stats = running_stats
        inv = 1.0 / np.sqrt(var + epsilon)
        x_hat = (x - mean) * inv
        y = gain * x_hat + bias
        cache = {"x_hat": x_hat, "inv": inv, "axes": "batch"}
        return y, new_stats, cache
    if kind in ("layer_norm", "group_norm"):
        n, d = x.shape
        g = groups if kind == "group_norm" else 1  # layer norm is one group
        xg = x.reshape(n, g, d // g)
        mean = np.mean(xg, axis=2, keepdims=True)
        var = np.var(xg, axis=2, keepdims=True)
        inv = 1.0 / np.sqrt(var + epsilon)
        x_hat = ((xg - mean) * inv).reshape(n, d)
        y = gain * x_hat + bias
        return y, running_stats, {"x_hat": x_hat, "inv": inv, "axes": "group", "groups": g}
    raise ShapeMismatch(f"unknown norm kind {kind!r}")


def norm_backward(dy, gain, cache):
    """Gradient through the standardization; returns (dx, dgain, dbias)."""
    x_hat = cache["x_hat"]
    inv = cache["inv"]
    dgain = np.sum(dy * x_hat, axis=0)
    dbias = np.sum(dy, axis=0)
    dxh = dy * gain
    if cache["axes"] == "batch":
        dx = inv * (dxh - np.mean(dxh, axis=0) - x_hat * np.mean(dxh * x_hat, axis=0))
    else:  # group (layer norm is one group)
        g = cache["groups"]
        n, d = x_hat.shape
        dxh_g = dxh.reshape(n, g, d // g)
        xh_g = x_hat.reshape(n, g, d // g)
        dx = (
            inv
            * (
                dxh_g
                - np.mean(dxh_g, axis=2, keepdims=True)
                - xh_g * np.mean(dxh_g * xh_g, axis=2, keepdims=True)
            )
        ).reshape(n, d)
    return dx, dgain, dbias


def labels_to_targets(spec: ModelSpec, labels: np.ndarray) -> np.ndarray:
    """Class ids -> one-hot; multi-hot rows pass through."""
    labels = np.asarray(labels)
    if labels.ndim == 1:
        ids = labels.astype(np.int64)
        if ids.min() < 0 or ids.max() >= spec.num_classes:
            raise ShapeMismatch("class id outside [0, num_classes)")
        targets = np.zeros((labels.shape[0], spec.num_classes))
        targets[np.arange(labels.shape[0]), ids] = 1.0
        return targets
    if labels.shape[1] != spec.num_classes:
        raise ShapeMismatch("multi-hot labels disagree with num_classes")
    return labels.astype(np.float64)


def model_forward(spec: ModelSpec, params: ParamSet, batch: Batch, mode: str = "train"):
    """Run the network; returns (predictions, mean loss, cache).

    Train mode uses batch statistics for batch_norm and records the updated
    running stats in the cache (applied by the caller via
    ``apply_running_stats``); eval mode is deterministic w.r.t. params.
    """
    if batch.size < 1:
        raise ShapeMismatch("empty batch")
    x = np.asarray(batch.inputs, dtype=np.float64)
    if x.shape[1] != spec.input_dim:
        raise ShapeMismatch(f"input dim {x.shape[1]} != {spec.input_dim}")
    cache = ForwardCache(params=params, mode=mode, batch_size=batch.size)
    new_stats: dict[str, np.ndarray] = {}
    for i, layer in enumerate(spec.layers):
        prefix = f"layer{i}"
        if layer.kind == "dense":
            w = params.entries[f"{prefix}.weight"]
            b = params.entries[f"{prefix}.bias"]
            if x.shape[1] != w.shape[0]:
                raise ShapeMismatch(f"layer {i}: input width {x.shape[1]} != {w.shape[0]}")
            cache.layer_caches.append({"x": x})
            x = x @ w + b
        elif layer.kind == "relu":
            cache.layer_caches.append({"mask": x > 0})
            x = np.maximum(x, 0.0)
        elif layer.kind in NORM_KINDS:
            gain = params.entries[f"{prefix}.gain"]
            bias = params.entries[f"{prefix}.bias"]
            stats = None
            if layer.kind == "batch_norm":
                stats = (
                    params.entries[f"{prefix}.running_mean"],
                    params.entries[f"{prefix}.running_var"],
                )
            x, updated, lcache = norm_forward(
                layer.kind, x, gain, bias, stats, mode, NORM_EPSILON, layer.groups, BN_MOMENTUM,
            )
            if layer.kind == "batch_norm" and mode == "train":
                new_stats[f"{prefix}.running_mean"] = updated[0]
                new_stats[f"{prefix}.running_var"] = updated[1]
            cache.layer_caches.append(lcache)
    # the loss's head
    targets = labels_to_targets(spec, batch.labels)
    if spec.loss == "cross_entropy":
        z = x - np.max(x, axis=1, keepdims=True)
        expz = np.exp(z)
        probs = expz / np.sum(expz, axis=1, keepdims=True)
        per_example = -np.sum(targets * (z - np.log(np.sum(expz, axis=1, keepdims=True))), axis=1)
    else:
        probs = 1.0 / (1.0 + np.exp(-x))
        eps = 1e-12
        per_example = -np.mean(
            targets * np.log(probs + eps) + (1.0 - targets) * np.log(1.0 - probs + eps),
            axis=1,
        )
    loss = float(np.mean(per_example))
    cache.layer_caches.append({"probs": probs, "targets": targets})
    if not np.isfinite(loss):
        raise NonFiniteLoss(f"loss = {loss}")
    cache.updated_running_stats = new_stats
    return probs, loss, cache


def model_backward(spec: ModelSpec, params: ParamSet, cache: ForwardCache) -> GradSet:
    """Gradient of the mean loss w.r.t. every trainable parameter."""
    if cache.params is not params:
        raise StaleCache("cache was built from different params")
    if cache.mode != "train":
        raise StaleCache("backward requires a train-mode cache")
    grads: GradSet = {}
    head_cache = cache.layer_caches[-1]
    probs, targets = head_cache["probs"], head_cache["targets"]
    n = cache.batch_size
    if spec.loss == "cross_entropy":
        dx = (probs - targets) / n
    else:
        dx = (probs - targets) / (n * targets.shape[1])
    for i in range(len(spec.layers) - 1, -1, -1):
        layer = spec.layers[i]
        prefix = f"layer{i}"
        lcache = cache.layer_caches[i]
        if layer.kind == "dense":
            x = lcache["x"]
            grads[f"{prefix}.weight"] = x.T @ dx
            grads[f"{prefix}.bias"] = np.sum(dx, axis=0)
            dx = dx @ params.entries[f"{prefix}.weight"].T
        elif layer.kind == "relu":
            dx = dx * lcache["mask"]
        else:
            gain = params.entries[f"{prefix}.gain"]
            dx, dgain, dbias = norm_backward(dx, gain, lcache)
            grads[f"{prefix}.gain"] = dgain
            grads[f"{prefix}.bias"] = dbias
    return grads


def apply_running_stats(params: ParamSet, cache: ForwardCache) -> None:
    """Commit the EMA running-stat updates recorded by a train-mode forward."""
    for name, value in cache.updated_running_stats.items():
        params.entries[name] = value


def local_loss_grad(algorithm, base_grad: GradSet, w_local: ParamSet, w_global: ParamSet,
                    cfg, prev_grad: GradSet | None = None) -> GradSet:
    """The local-objective modification per named entry; ``prev_grad`` is
    FedDyn's stored gradient (None before its first round)."""
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
            g = base_grad[name] + cfg.alpha * (w_local.entries[name] - w_global.entries[name])
            if prev_grad is not None:
                g = g - prev_grad[name]
            out[name] = g
        return out
    raise ValueError(f"unknown algorithm {algorithm!r}")


def update_dyn_memory(prev_grad: GradSet, w_local: ParamSet, w_ref: ParamSet, alpha) -> GradSet:
    """FedDyn's client memory after a round: g - alpha * (w_local - w_ref) per entry."""
    return {name: g - alpha * (w_local.entries[name] - w_ref.entries[name])
            for name, g in prev_grad.items()}


# ---------------------------------------------------------------------------
# local optimizers

def local_sgd_step(params: ParamSet, grads: GradSet, eta: float) -> ParamSet:
    """One step of w <- w - eta*g on trainable entries; stats pass through."""
    if not set(grads) <= set(params.entries):
        raise KeyMismatch("gradient keys outside ParamSet")
    out = params.copy()
    for name, g in grads.items():
        if g.shape != params.entries[name].shape:
            raise KeyMismatch(f"shape mismatch for {name!r}")
        out.entries[name] = params.entries[name] - eta * g
    return out


@dataclass
class AdamState:
    m: GradSet
    v: GradSet
    step: int = 0

    @classmethod
    def zeros(cls, params: ParamSet) -> "AdamState":
        zeros = {n: np.zeros_like(v) for n, v in params.entries.items() if params.trainable[n]}
        return cls(m={k: v.copy() for k, v in zeros.items()}, v=zeros, step=0)


def local_adam_step(
    params: ParamSet,
    grads: GradSet,
    state: AdamState,
    eta: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps_adam: float = 1e-8,
) -> tuple[ParamSet, AdamState]:
    """Bias-corrected Adam update on trainable entries."""
    if not set(grads) <= set(params.entries):
        raise KeyMismatch("gradient keys outside ParamSet")
    out = params.copy()
    t = state.step + 1
    new_m, new_v = dict(state.m), dict(state.v)
    for name, g in grads.items():
        m = beta1 * state.m[name] + (1.0 - beta1) * g
        v = beta2 * state.v[name] + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        out.entries[name] = params.entries[name] - eta * m_hat / (np.sqrt(v_hat) + eps_adam)
        new_m[name], new_v[name] = m, v
    return out, AdamState(m=new_m, v=new_v, step=t)
