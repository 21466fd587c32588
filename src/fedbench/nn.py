"""Minimal dense network with batch/layer/group normalization, run through a layer plan.

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

A ``Plan`` compiles a ModelSpec once into one flat float64 vector layout:
trainable non-norm entries, then norm gains and biases (up to ``n_train``),
then each batch-norm layer's running mean and variance as one (2, d) block,
so each exclusion policy shares a prefix of it (``Plan.prefix``).  Inside a
run this vector is the only parameter representation (see ``params``).
Each layer below the head is a pair of closures over fixed views of the
vector, for train and eval alike; the backward writes into a flat gradient
with ``out=``.  ``apply_running_stats`` and the optimizer steps update a
vector in place, which only a client round's private vector may be (see
``params``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBatch,
    KeyMismatch,
    NonFiniteLoss,
    ShapeMismatch,
    StaleCache,
    check_int,
    check_real,
)
from .params import NON_NORM, NORM, ExclusionPolicy, ParamSet

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

    def check(self, path: str) -> None:
        """Field types and ranges; ModelSpec runs this for each layer, with
        ``path`` naming the layer by its index in a ConfigError."""
        check_int(self.width, f"{path}.width")
        check_int(self.groups, f"{path}.groups")
        check_real(self.epsilon, f"{path}.epsilon")
        check_real(self.momentum, f"{path}.momentum")
        if self.groups < 1:
            raise ConfigError(f"{path}.groups", "must be >= 1")
        if not 0.0 <= self.momentum <= 1.0:
            raise ConfigError(f"{path}.momentum", "must lie in [0, 1]")
        if self.kind in NORM_KINDS and self.epsilon < 0:
            raise ShapeMismatch("epsilon must be non-negative")


@dataclass
class ModelSpec:
    input_dim: int
    layers: list[LayerSpec]
    loss: str  # cross_entropy | binary_cross_entropy
    num_classes: int

    def __post_init__(self):
        check_int(self.input_dim, "model.input_dim")
        check_int(self.num_classes, "model.num_classes")
        for i, layer in enumerate(self.layers):
            layer.check(f"model.layers[{i}]")
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


def _layout(spec: ModelSpec) -> list[tuple[str, tuple, str, bool]]:
    """(name, shape, tag, trainable) of every entry, in ParamSet order."""
    widths = [spec.input_dim] + spec.resolve_widths()
    out = []
    for i, layer in enumerate(spec.layers):
        prefix, width = f"layer{i}", widths[i + 1]
        if layer.kind == "dense":
            out += [(f"{prefix}.weight", (widths[i], width), NON_NORM, True),
                    (f"{prefix}.bias", (width,), NON_NORM, True)]
        elif layer.kind in NORM_KINDS:
            out += [(f"{prefix}.gain", (width,), NORM, True), (f"{prefix}.bias", (width,), NORM, True)]
            if layer.kind == "batch_norm":
                out += [(f"{prefix}.running_mean", (width,), NORM, False),
                        (f"{prefix}.running_var", (width,), NORM, False)]
    return out


def init_params(spec: ModelSpec, seed: int) -> ParamSet:
    """Fresh parameters: scaled-normal weights, zero biases, unit gains."""
    rng = np.random.default_rng(seed)
    layout = _layout(spec)
    entries: dict[str, np.ndarray] = {}
    for name, shape, _, _ in layout:
        if name.endswith(".weight"):
            entries[name] = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), shape)
        elif name.endswith((".gain", ".running_var")):
            entries[name] = np.ones(shape)
        else:
            entries[name] = np.zeros(shape)
    return ParamSet(entries=entries, tags={n: tag for n, _, tag, _ in layout},
                    trainable={n: train for n, _, _, train in layout})


# ---------------------------------------------------------------------------
# the layer plan

@dataclass
class ForwardCache:
    params: np.ndarray  # the vector the forward read
    train: bool
    batch_size: int
    layers: list = field(default_factory=list)  # what each layer's backward needs
    head: tuple = ()  # (probs, targets)
    batch_stats: list = field(default_factory=list)  # (start, momentum, [mean; var])


class Plan:
    """A ModelSpec compiled against the flat parameter vector (see the module docstring)."""

    def __init__(self, spec: ModelSpec):
        self.spec = spec
        layout = _layout(spec)
        self.names = [name for name, _, _, _ in layout]
        self.tags = {name: tag for name, _, tag, _ in layout}
        self.trainable = {name: train for name, _, _, train in layout}
        # vector order: trainable non-norm, trainable norm, running stats;
        # the sort is stable, so each group keeps the layer order
        group = {name: 0 if tag == NON_NORM else 1 if train else 2
                 for name, _, tag, train in layout}
        self.slots: dict[str, tuple[int, int, tuple]] = {}  # name -> (start, stop, shape)
        sizes = [0, 0, 0]
        for name, shape, _, _ in sorted(layout, key=lambda e: group[e[0]]):
            start = sum(sizes)
            sizes[group[name]] += math.prod(shape)
            self.slots[name] = (start, sum(sizes), shape)
        self.size, self.n_non_norm, self.n_train = sum(sizes), sizes[0], sizes[0] + sizes[1]
        self.non_norm_slots = [(a, b) for a, b, _ in self.slots.values() if b <= self.n_non_norm]
        self.index = {name: k for k, name in enumerate(self.slots)}  # position in views()
        self._views = [(None, []), (None, [])]  # (vector, its views), latest last
        self.softmax = spec.layers[-1].kind == "softmax_ce_head"
        widths = [spec.input_dim] + spec.resolve_widths()
        self.forward, self.backward = [], []
        for i, layer in enumerate(spec.layers[:-1]):
            if layer.kind == "dense":
                fwd, bwd = _dense(self, i)
            elif layer.kind == "relu":
                fwd, bwd = _relu()
            else:
                fwd, bwd = _norm(self, i, layer, widths[i + 1])
            self.forward.append(fwd)
            self.backward.append(bwd)
        self.backward.reverse()

    def pack(self, params: ParamSet) -> np.ndarray:
        """A fresh vector holding the entries of ``params``."""
        if list(params.entries) != self.names:
            raise KeyMismatch("entries are not keyed like the model's")
        arrays = [params.entries[name] for name in self.slots]
        if [a.shape for a in arrays] != [shape for _, _, shape in self.slots.values()]:
            raise KeyMismatch("entry shapes differ from the model's")
        return np.concatenate(arrays, axis=None)

    def prefix(self, policy: ExclusionPolicy) -> int:
        """How many leading entries of a vector the server shares under ``policy``
        (the trainable ones under stats_only_excluded and rescaling_aggregated)."""
        return {ExclusionPolicy.NONE: self.size,
                ExclusionPolicy.ALL_NORM_EXCLUDED: self.n_non_norm}.get(policy, self.n_train)

    def views(self, vec: np.ndarray) -> list[np.ndarray]:
        """Views of the entries ``vec`` holds (a gradient: the trainable ones), in
        vector order; kept for the last two vectors seen (a round's and its gradient)."""
        for seen, views in self._views:
            if seen is vec:
                return views
        views = [vec[a:b].reshape(shape) for a, b, shape in self.slots.values()
                 if b <= vec.shape[0]]
        self._views = [self._views[-1], (vec, views)]
        return views

    def entries(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """The views of ``vec`` by name, in ParamSet order."""
        views = self.views(vec)
        return {n: views[self.index[n]] for n in self.names if self.index[n] < len(views)}

    def publish(self, vec: np.ndarray) -> ParamSet:
        """A ParamSet whose entries are views of ``vec``."""
        return ParamSet(self.entries(vec), self.tags, self.trainable)


# Each layer's closures find their entries at fixed positions of Plan.views.

def _dense(plan, i):
    k, j = plan.index[f"layer{i}.weight"], plan.index[f"layer{i}.bias"]

    def forward(v, x, cache):
        cache.layers.append(x)
        return x @ v[k] + v[j]

    def backward(v, g, dy, x):
        np.matmul(x.T, dy, out=g[k])
        np.add.reduce(dy, 0, out=g[j])
        if i:  # nothing consumes the gradient w.r.t. the model's inputs
            return dy @ v[k].T
        return None

    return forward, backward


def _relu():
    def forward(v, x, cache):
        cache.layers.append(x > 0)
        return np.maximum(x, 0.0)

    def backward(v, g, dy, mask):
        return dy * mask

    return forward, backward


def _norm(plan, i, layer, width):
    """BN normalizes per feature over the batch (train) or by the running
    stats (eval); LN/GN normalize per example, layer norm as one group."""
    add = np.add.reduce
    k, j = plan.index[f"layer{i}.gain"], plan.index[f"layer{i}.bias"]
    eps, momentum = layer.epsilon, layer.momentum
    if layer.kind == "batch_norm":
        r, q = plan.index[f"layer{i}.running_mean"], plan.index[f"layer{i}.running_var"]
        start = plan.slots[f"layer{i}.running_mean"][0]  # mean, then var: one (2, width) block

        def standardize(v, x, cache):
            if cache.train:
                n = x.shape[0]
                if n < 2:
                    raise DegenerateBatch("batch_norm train mode needs batch size >= 2")
                stats = np.empty(2 * width)
                mean, var = stats[:width], stats[width:]
                np.divide(add(x, 0, out=mean), n, out=mean)
                xc = x - mean
                np.divide(add(xc * xc, 0, out=var), n, out=var)  # biased (1/N)
                cache.batch_stats.append((start, momentum, stats))
            else:
                mean, var = v[r], v[q]
                xc = x - mean
            inv = 1.0 / np.sqrt(var + eps)
            return xc * inv, inv

        def standardize_backward(dxh, x_hat, inv):
            n = x_hat.shape[0]
            return inv * (dxh - add(dxh, 0) / n - x_hat * (add(dxh * x_hat, 0) / n))
    else:
        groups = layer.groups if layer.kind == "group_norm" else 1
        size = width // groups

        def standardize(v, x, cache):
            n = x.shape[0]
            xg = x.reshape(n, groups, size)
            xc = xg - add(xg, 2, keepdims=True) / size
            var = add(xc * xc, 2, keepdims=True) / size
            inv = 1.0 / np.sqrt(var + eps)
            return (xc * inv).reshape(n, width), inv

        def standardize_backward(dxh, x_hat, inv):
            n = x_hat.shape[0]
            dxh_g, xh_g = dxh.reshape(n, groups, size), x_hat.reshape(n, groups, size)
            mean_dxh = add(dxh_g, 2, keepdims=True) / size
            dx = inv * (dxh_g - mean_dxh - xh_g * (add(dxh_g * xh_g, 2, keepdims=True) / size))
            return dx.reshape(n, width)

    def forward(v, x, cache):
        x_hat, inv = standardize(v, x, cache)
        cache.layers.append((x_hat, inv))
        return v[k] * x_hat + v[j]

    def backward(v, g, dy, saved):
        x_hat, inv = saved
        add(dy * x_hat, 0, out=g[k])
        add(dy, 0, out=g[j])
        return standardize_backward(dy * v[k], x_hat, inv)

    return forward, backward


def labels_to_targets(spec: ModelSpec, labels: np.ndarray) -> np.ndarray:
    """Class ids -> one-hot; multi-hot rows pass through (as float64)."""
    labels = np.asarray(labels)
    if labels.ndim == 1:
        ids = labels.astype(np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= spec.num_classes):
            raise ShapeMismatch("class id outside [0, num_classes)")
        targets = np.zeros((labels.shape[0], spec.num_classes))
        targets[np.arange(labels.shape[0]), ids] = 1.0
        return targets
    if labels.shape[1] != spec.num_classes:
        raise ShapeMismatch("multi-hot labels disagree with num_classes")
    return labels.astype(np.float64)


def model_forward(plan: Plan, params: np.ndarray, batch: Batch, mode: str = "train"):
    """Run the network on the parameter vector; returns (predictions, mean loss, cache).

    Train mode uses batch statistics for batch_norm and records them in the
    cache (the caller moves the running stats with ``apply_running_stats``);
    eval mode is deterministic w.r.t. params.
    """
    if batch.size < 1:
        raise ShapeMismatch("empty batch")
    x = np.asarray(batch.inputs, dtype=np.float64)
    if x.shape[1] != plan.spec.input_dim:
        raise ShapeMismatch(f"input dim {x.shape[1]} != {plan.spec.input_dim}")
    cache = ForwardCache(params=params, train=mode == "train", batch_size=batch.size)
    views = plan.views(params)
    for forward in plan.forward:
        x = forward(views, x, cache)
    targets = batch.targets
    if targets is None:
        targets = labels_to_targets(plan.spec, batch.labels)
    if plan.softmax:
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
    cache.head = (probs, targets)
    if not math.isfinite(loss):
        raise NonFiniteLoss(f"loss = {loss}")
    return probs, loss, cache


def apply_running_stats(params: np.ndarray, cache: ForwardCache) -> None:
    """Move each batch-norm layer's running stats in ``params`` one EMA step
    toward the batch statistics a train-mode forward recorded, in place."""
    for start, momentum, batch_stats in cache.batch_stats:
        running = params[start:start + batch_stats.shape[0]]  # mean, then var
        np.multiply(running, 1.0 - momentum, out=running)
        np.add(running, momentum * batch_stats, out=running)


def model_backward(plan: Plan, params: np.ndarray, cache: ForwardCache,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Gradient of the mean loss w.r.t. the trainable prefix ``params[:n_train]``,
    written into ``out`` (a fresh vector if None)."""
    if cache.params is not params:
        raise StaleCache("cache was built from different params")
    if not cache.train:
        raise StaleCache("backward requires a train-mode cache")
    grad = np.empty(plan.n_train) if out is None else out
    probs, targets = cache.head
    n = cache.batch_size
    if plan.softmax:
        dx = (probs - targets) / n
    else:
        dx = (probs - targets) / (n * targets.shape[1])
    views, grad_views = plan.views(params), plan.views(grad)
    for backward, saved in zip(plan.backward, reversed(cache.layers)):
        dx = backward(views, grad_views, dx, saved)
    return grad


# ---------------------------------------------------------------------------
# local optimizers
#
# A step updates the trainable prefix params[:grad.size] of a parameter
# vector in place; the running statistics after it are left as they are.

def local_sgd_step(params: np.ndarray, grad: np.ndarray, eta: float) -> None:
    """One step of w <- w - eta*g."""
    n = grad.shape[0]
    if n > params.shape[0]:
        raise KeyMismatch("gradient is longer than the parameter vector")
    w = params[:n]
    np.subtract(w, eta * grad, out=w)


@dataclass
class AdamState:
    """First and second moments of the trainable prefix, updated in place."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        return cls(m=np.zeros(size), v=np.zeros(size), step=0)


def local_adam_step(
    params: np.ndarray,
    grad: np.ndarray,
    state: AdamState,
    eta: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps_adam: float = 1e-8,
) -> None:
    """Bias-corrected Adam update.  Each in-place ufunc sees the operands of
    ``m = beta1*m + (1-beta1)*g``, ``v = beta2*v + (1-beta2)*g*g`` and
    ``w = w - eta*m_hat / (sqrt(v_hat) + eps)``, so the bits are the same."""
    n = grad.shape[0]
    if n != state.m.shape[0] or n > params.shape[0]:
        raise KeyMismatch("gradient size differs from the Adam state's")
    state.step += 1
    t = state.step
    m, v = state.m, state.v
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    np.sqrt(v_hat, out=v_hat)
    v_hat += eps_adam
    m_hat *= eta
    m_hat /= v_hat
    w = params[:n]
    w -= m_hat
