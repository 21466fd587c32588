"""Minimal dense network with batch/layer/group normalization.

Forward/backward passes are written analytically in float64 numpy so the
whole model is differentiable by hand and checkable against central finite
differences.  Reductions use numpy's pairwise summation throughout, so two
eval forwards with identical inputs are bitwise identical.

Reductions are spelled as the ufunc calls that ``np.mean``/``np.var``/
``np.sum``/``np.max`` make internally, without their Python wrappers, which
cost more than the arithmetic at these array sizes: a mean is
``np.add.reduce(x, axis) / n``; a biased variance is the mean of the squared
deviations ``c = x - mean``, ``np.add.reduce(c * c, axis) / n``, as numpy
computes it (sum, divide, subtract, square, sum, divide); ``np.sum`` is
``np.add.reduce`` and ``np.max`` is ``np.maximum.reduce``.  Every ufunc sees
the operands numpy's own code would hand it, in the same order, so each
result is bit-for-bit the one the wrappers give.  ``tests/test_bitwise.py``
holds the wrapper-based code as the oracle.
"""

from __future__ import annotations

import math
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
        if not self.layers:
            raise ShapeMismatch("model has no layers")
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
    targets: np.ndarray | None = None  # (size, num_classes) float; from labels if None

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
            n = x.shape[0]
            if n < 2:
                raise DegenerateBatch("batch_norm train mode needs batch size >= 2")
            mean = np.add.reduce(x, 0) / n
            xc = x - mean
            var = np.add.reduce(xc * xc, 0) / n  # biased (1/N)
            run_mean, run_var = running_stats
            new_stats = (
                (1.0 - momentum) * run_mean + momentum * mean,
                (1.0 - momentum) * run_var + momentum * var,
            )
        else:
            mean, var = running_stats
            xc = x - mean
            new_stats = running_stats
        inv = 1.0 / np.sqrt(var + epsilon)
        x_hat = xc * inv
        y = gain * x_hat + bias
        cache = {"x_hat": x_hat, "inv": inv, "axes": "batch"}
        return y, new_stats, cache
    if kind in ("layer_norm", "group_norm"):
        n, d = x.shape
        g = groups if kind == "group_norm" else 1  # layer norm is one group
        size = d // g
        xg = x.reshape(n, g, size)
        xc = xg - np.add.reduce(xg, 2, keepdims=True) / size
        var = np.add.reduce(xc * xc, 2, keepdims=True) / size
        inv = 1.0 / np.sqrt(var + epsilon)
        x_hat = (xc * inv).reshape(n, d)
        y = gain * x_hat + bias
        return y, running_stats, {"x_hat": x_hat, "inv": inv, "axes": "group", "groups": g}
    raise ShapeMismatch(f"unknown norm kind {kind!r}")


def _norm_backward(dy, gain, cache):
    """Gradient through the standardization; returns (dx, dgain, dbias)."""
    x_hat = cache["x_hat"]
    inv = cache["inv"]
    add = np.add.reduce
    dgain = add(dy * x_hat, 0)
    dbias = add(dy, 0)
    dxh = dy * gain
    if cache["axes"] == "batch":
        n = x_hat.shape[0]
        dx = inv * (dxh - add(dxh, 0) / n - x_hat * (add(dxh * x_hat, 0) / n))
    else:  # group (layer norm is one group)
        g = cache["groups"]
        n, d = x_hat.shape
        size = d // g
        dxh_g = dxh.reshape(n, g, size)
        xh_g = x_hat.reshape(n, g, size)
        dx = (
            inv
            * (
                dxh_g
                - add(dxh_g, 2, keepdims=True) / size
                - xh_g * (add(dxh_g * xh_g, 2, keepdims=True) / size)
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


def labels_to_targets(spec: ModelSpec, labels: np.ndarray) -> np.ndarray:
    """Class ids -> one-hot; multi-hot rows pass through (as float64)."""
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
            targets = batch.targets
            if targets is None:
                targets = labels_to_targets(spec, batch.labels)
            if layer.kind == "softmax_ce_head":
                z = x - np.maximum.reduce(x, 1, keepdims=True)
                expz = np.exp(z)
                total = np.add.reduce(expz, 1, keepdims=True)
                probs = expz / total
                per_example = -np.add.reduce(targets * (z - np.log(total)), 1)
            else:
                probs = 1.0 / (1.0 + np.exp(-x))
                eps = 1e-12
                per_example = -(np.add.reduce(
                    targets * np.log(probs + eps) + (1.0 - targets) * np.log(1.0 - probs + eps),
                    1,
                ) / x.shape[1])
            loss = float(np.add.reduce(per_example) / per_example.shape[0])
            cache.layer_caches.append({"probs": probs, "targets": targets})
            if not math.isfinite(loss):
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
            grads[f"{prefix}.bias"] = np.add.reduce(dx, 0)
            if i:  # nothing consumes the gradient w.r.t. the inputs
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
#
# A step returns a new ParamSet that shares every array it does not change
# (running statistics, frozen entries) with its input; params.py states the
# no-in-place-writes invariant that makes the sharing safe.

def local_sgd_step(params: ParamSet, grads: GradSet, eta: float) -> ParamSet:
    """One step of w <- w - eta*g on trainable entries; stats pass through."""
    entries = dict(params.entries)
    for name, g in grads.items():
        w = entries.get(name)
        if w is None:
            raise KeyMismatch("gradient keys outside ParamSet")
        if g.shape != w.shape:
            raise KeyMismatch(f"shape mismatch for {name!r}")
        entries[name] = w - eta * g
    return ParamSet(entries=entries, tags=params.tags, trainable=params.trainable)


@dataclass
class AdamState:
    """First and second moments of the trainable entries, flattened and
    concatenated in ``names`` order."""

    names: list[str]
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, params: ParamSet) -> "AdamState":
        names = params.trainable_names()
        size = sum(params.entries[n].size for n in names)
        return cls(names=names, m=np.zeros(size), v=np.zeros(size), step=0)


def local_adam_step(
    params: ParamSet,
    grads: GradSet,
    state: AdamState,
    eta: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps_adam: float = 1e-8,
) -> tuple[ParamSet, AdamState]:
    """Bias-corrected Adam update on trainable entries.

    One update over the flat vector of all trainable entries: every operation
    is elementwise and correctly rounded, so each element comes out exactly
    as a per-entry update would compute it.  The new entries are views of the
    updated vector.
    """
    names = state.names
    if len(grads) != len(names):
        raise KeyMismatch("gradient keys differ from the Adam state's")
    try:
        g = np.concatenate([grads[n] for n in names], axis=None)
    except KeyError as exc:
        raise KeyMismatch(f"no gradient for {exc}") from None
    w = np.concatenate([params.entries[n] for n in names], axis=None)
    if g.shape != w.shape or w.shape != state.m.shape:
        raise KeyMismatch("gradient shapes differ from the parameters'")
    t = state.step + 1
    m = beta1 * state.m + (1.0 - beta1) * g
    v = beta2 * state.v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    w = w - eta * m_hat / (np.sqrt(v_hat) + eps_adam)
    entries = dict(params.entries)
    start = 0
    for n in names:
        shape = entries[n].shape
        end = start + entries[n].size
        entries[n] = w[start:end].reshape(shape)
        start = end
    out = ParamSet(entries=entries, tags=params.tags, trainable=params.trainable)
    return out, AdamState(names=names, m=m, v=v, step=t)
