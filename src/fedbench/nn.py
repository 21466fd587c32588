"""Minimal dense network with batch/layer/group normalization.

Forward/backward passes are written analytically in float64 numpy so the
whole model is differentiable by hand and checkable against central finite
differences.  Reductions use numpy's pairwise summation throughout, so two
eval forwards with identical inputs are bitwise identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBatch, KeyMismatch, NonFiniteLoss, ShapeMismatch, StaleCache
from .params import NON_NORM, NORM, GradSet, ParamSet

BN_MOMENTUM = 0.1  # running-stat EMA step; convention, configurable per layer
NORM_KINDS = ("batch_norm", "layer_norm", "group_norm")
HEAD_KINDS = ("softmax_ce_head", "sigmoid_bce_head")


@dataclass
class LayerSpec:
    kind: str
    width: int = 0  # 0 = inherit previous width (non-dense layers)
    groups: int = 1
    epsilon: float = 1e-5
    momentum: float = BN_MOMENTUM

    def __post_init__(self):
        if self.kind not in ("dense", "relu") + NORM_KINDS + HEAD_KINDS:
            raise ShapeMismatch(f"unknown layer kind {self.kind!r}")
        if self.kind in NORM_KINDS and self.epsilon < 0:
            raise ShapeMismatch("epsilon must be non-negative")


@dataclass
class ModelSpec:
    input_dim: int
    layers: list[LayerSpec]
    loss: str  # cross_entropy | binary_cross_entropy
    num_classes: int

    def __post_init__(self):
        if self.loss not in ("cross_entropy", "binary_cross_entropy"):
            raise ShapeMismatch(f"unknown loss {self.loss!r}")
        widths = self.resolve_widths()
        head = self.layers[-1]
        if head.kind not in HEAD_KINDS:
            raise ShapeMismatch("last layer must be a loss head")
        if self.loss == "cross_entropy" and head.kind != "softmax_ce_head":
            raise ShapeMismatch("cross_entropy requires softmax_ce_head")
        if self.loss == "binary_cross_entropy" and head.kind != "sigmoid_bce_head":
            raise ShapeMismatch("binary_cross_entropy requires sigmoid_bce_head")
        if widths[-1] != self.num_classes:
            raise ShapeMismatch(
                f"head width {widths[-1]} != num_classes {self.num_classes}"
            )

    def resolve_widths(self) -> list[int]:
        """Output width of every layer; validates consistency on the way."""
        w = self.input_dim
        out = []
        for i, layer in enumerate(self.layers):
            if layer.kind == "dense":
                if layer.width <= 0:
                    raise ShapeMismatch(f"layer {i}: dense needs a positive width")
                w = layer.width
            else:
                if layer.width not in (0, w):
                    raise ShapeMismatch(
                        f"layer {i}: width {layer.width} inconsistent with input {w}"
                    )
                if layer.kind == "group_norm" and w % layer.groups != 0:
                    raise ShapeMismatch(f"layer {i}: groups must divide width {w}")
            out.append(w)
        return out


@dataclass
class Batch:
    inputs: np.ndarray  # (size, input_dim)
    labels: np.ndarray  # (size,) class ids, or (size, num_classes) multi-hot
    size: int

    @classmethod
    def from_arrays(cls, inputs, labels) -> "Batch":
        inputs = np.asarray(inputs, dtype=np.float64)
        labels = np.asarray(labels)
        if inputs.shape[0] != labels.shape[0]:
            raise ShapeMismatch("inputs and labels disagree on batch size")
        return cls(inputs=inputs, labels=labels, size=inputs.shape[0])


def init_params(spec: ModelSpec, seed: int) -> ParamSet:
    """Fresh parameters: scaled-normal weights, zero biases, unit gains."""
    rng = np.random.default_rng(seed)
    entries: dict[str, np.ndarray] = {}
    tags: dict[str, str] = {}
    trainable: dict[str, bool] = {}
    widths = [spec.input_dim] + spec.resolve_widths()
    for i, layer in enumerate(spec.layers):
        fan_in, width = widths[i], widths[i + 1]
        prefix = f"layer{i}"
        if layer.kind == "dense":
            entries[f"{prefix}.weight"] = rng.normal(0.0, 1.0 / np.sqrt(fan_in), (fan_in, width))
            entries[f"{prefix}.bias"] = np.zeros(width)
            for n in (f"{prefix}.weight", f"{prefix}.bias"):
                tags[n], trainable[n] = NON_NORM, True
        elif layer.kind in NORM_KINDS:
            entries[f"{prefix}.gain"] = np.ones(width)
            entries[f"{prefix}.bias"] = np.zeros(width)
            for n in (f"{prefix}.gain", f"{prefix}.bias"):
                tags[n], trainable[n] = NORM, True
            if layer.kind == "batch_norm":
                entries[f"{prefix}.running_mean"] = np.zeros(width)
                entries[f"{prefix}.running_var"] = np.ones(width)
                for n in (f"{prefix}.running_mean", f"{prefix}.running_var"):
                    tags[n], trainable[n] = NORM, False
    return ParamSet(entries=entries, tags=tags, trainable=trainable)


# ---------------------------------------------------------------------------
# normalization layers

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


def _norm_backward(dy, gain, cache):
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


# ---------------------------------------------------------------------------
# model forward / backward

@dataclass
class ForwardCache:
    params: ParamSet
    mode: str
    layer_caches: list = field(default_factory=list)
    batch_size: int = 0
    updated_running_stats: dict = field(default_factory=dict)


def _labels_to_targets(spec: ModelSpec, labels: np.ndarray) -> np.ndarray:
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
                layer.kind, x, gain, bias, stats, mode, layer.epsilon, layer.groups,
                layer.momentum,
            )
            if layer.kind == "batch_norm" and mode == "train":
                new_stats[f"{prefix}.running_mean"] = updated[0]
                new_stats[f"{prefix}.running_var"] = updated[1]
            cache.layer_caches.append(lcache)
        else:  # loss head
            targets = _labels_to_targets(spec, batch.labels)
            if layer.kind == "softmax_ce_head":
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
    raise ShapeMismatch("model has no loss head")  # pragma: no cover


def apply_running_stats(params: ParamSet, cache: ForwardCache) -> None:
    """Commit the EMA running-stat updates recorded by a train-mode forward."""
    for name, value in cache.updated_running_stats.items():
        params.entries[name] = value


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
    head = spec.layers[-1]
    if head.kind == "softmax_ce_head":
        dx = (probs - targets) / n
    else:
        dx = (probs - targets) / (n * targets.shape[1])
    for i in range(len(spec.layers) - 2, -1, -1):
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
            dx, dgain, dbias = _norm_backward(dx, gain, lcache)
            grads[f"{prefix}.gain"] = dgain
            grads[f"{prefix}.bias"] = dbias
    return grads


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
        zeros = {n: np.zeros_like(params.entries[n]) for n in params.trainable_names()}
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
