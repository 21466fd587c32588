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

A ModelSpec checks itself when built, and each fault is a ConfigError naming
its field (``model.layers[1].kind``): each layer holds the fields
``LAYER_FIELDS`` lists for its kind, and the last layer, and no other, is the
head that ``LOSS_HEADS`` pairs with the loss.  A ``Plan`` compiles a
ModelSpec once into one flat float64 vector layout: trainable non-norm
entries, then norm gains and biases (up to ``n_train``), then each
batch-norm layer's running mean and variance as one (2, d) block, so what
the server shares of it is always a prefix (see ``strategies``).
From ``init_params`` to the checkpoint files this vector is the only
parameter representation (see ``params``).  Each layer below the head is a
pair of closures over fixed views of the vector, for train and eval alike;
the backward writes into a flat gradient with ``out=``.
``apply_running_stats`` and the optimizer steps update a vector in place,
which only a client round's private vector may be (see ``params``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBatch,
    NonFiniteLoss,
    ShapeMismatch,
    StaleCache,
    check_int,
    check_real,
    check_stated,
)
from .params import NON_NORM, NORM

BN_MOMENTUM = 0.1  # running-stat EMA step; convention, configurable per batch-norm layer
NORM_KINDS = ("batch_norm", "layer_norm", "group_norm")
LOSS_HEADS = {"cross_entropy": "softmax_ce_head", "binary_cross_entropy": "sigmoid_bce_head"}
# The LayerSpec fields each layer kind reads, and their defaults when omitted
LAYER_FIELDS = {"dense": ("width",), "relu": (), "batch_norm": ("epsilon", "momentum"),
                "layer_norm": ("epsilon",), "group_norm": ("groups", "epsilon"),
                **dict.fromkeys(LOSS_HEADS.values(), ())}
LAYER_DEFAULTS = {"groups": 1, "epsilon": 1e-5, "momentum": BN_MOMENTUM}  # width has none


@dataclass
class LayerSpec:
    """A layer kind and the fields ``LAYER_FIELDS`` lists for it (None: not stated)."""
    kind: str
    width: int | None = None       # dense; any other layer keeps its input's width
    groups: int | None = None      # group_norm
    epsilon: float | None = None   # the norm layers
    momentum: float | None = None  # batch_norm

    def check(self, path: str, last: bool) -> None:
        """Kind, the fields it reads, their types and ranges; ModelSpec runs this
        for each layer, with ``path`` naming the layer by its index in a ConfigError
        and ``last`` set for the last layer, which must be a loss head and the only one."""
        if self.kind not in LAYER_FIELDS:
            raise ConfigError(f"{path}.kind", f"unknown layer kind {self.kind!r}")
        if (self.kind in LOSS_HEADS.values()) != last:
            raise ConfigError(f"{path}.kind", "the last layer must be a loss head and no "
                              f"other may be, got {self.kind!r}")
        check_stated(self, path, self.kind, LAYER_FIELDS[self.kind], LAYER_DEFAULTS)
        for name in LAYER_FIELDS[self.kind]:
            field, value = f"{path}.{name}", getattr(self, name)
            if name in ("width", "groups"):
                check_int(value, field, 1)
                continue
            check_real(value, field)
            if value < 0 or (name == "momentum" and value > 1):
                raise ConfigError(field, "must lie in [0, 1]" if name == "momentum"
                                  else "must be >= 0")


@dataclass
class ModelSpec:
    input_dim: int
    layers: list[LayerSpec]
    loss: str  # cross_entropy | binary_cross_entropy, paired with its head by LOSS_HEADS
    num_classes: int

    def __post_init__(self):
        check_int(self.input_dim, "model.input_dim")
        check_int(self.num_classes, "model.num_classes")
        if self.loss not in LOSS_HEADS:
            raise ConfigError("model.loss", f"unknown loss {self.loss!r}")
        if not self.layers:
            raise ConfigError("model.layers", "model has no layers")
        for i, layer in enumerate(self.layers):
            layer.check(f"model.layers[{i}]", last=i == len(self.layers) - 1)
        if self.layers[-1].kind != LOSS_HEADS[self.loss]:
            raise ConfigError("model.loss", f"{self.loss} requires {LOSS_HEADS[self.loss]}")
        width = self.resolve_widths()[-1]
        if width != self.num_classes:
            raise ConfigError("model.num_classes", f"head width {width} != {self.num_classes}")

    def resolve_widths(self) -> list[int]:
        """Output width of every layer; checks that a group norm's groups divide it."""
        w = self.input_dim
        out = []
        for i, layer in enumerate(self.layers):
            if layer.kind == "dense":
                w = layer.width
            elif layer.kind == "group_norm" and w % layer.groups != 0:
                raise ConfigError(f"model.layers[{i}].groups", f"must divide width {w}")
            out.append(w)
        return out


@dataclass
class Batch:
    inputs: np.ndarray  # (size, input_dim)
    labels: np.ndarray  # (size,) class ids, or (size, num_classes) multi-hot
    targets: np.ndarray | None = None  # (size, num_classes) float; from labels if None

    @property
    def size(self) -> int:
        """The number of rows, read from ``inputs``."""
        return self.inputs.shape[0]

    @classmethod
    def from_arrays(cls, inputs, labels) -> "Batch":
        inputs = np.asarray(inputs, dtype=np.float64)
        labels = np.asarray(labels)
        if inputs.shape[0] != labels.shape[0]:  # Batch is public (fedbench.__all__)
            raise ShapeMismatch("inputs and labels disagree on batch size")
        return cls(inputs=inputs, labels=labels)


def _layout(spec: ModelSpec) -> list[tuple[str, tuple, str, bool]]:
    """(name, shape, tag, trainable) of every entry, in the checkpoint's layout order."""
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


# ---------------------------------------------------------------------------
# the layer plan

@dataclass
class ForwardCache:
    params: np.ndarray  # the vector the forward read, kept to detect a stale cache
    train: bool
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
        """The views of ``vec`` by name, in the checkpoint's layout order."""
        views = self.views(vec)
        return {n: views[self.index[n]] for n in self.names if self.index[n] < len(views)}


def init_params(plan: Plan, seed: int) -> np.ndarray:
    """A fresh vector: scaled-normal weights, zero biases, unit gains, the
    weights drawn entry by entry in the checkpoint's layout order."""
    rng = np.random.default_rng(seed)
    vec = np.zeros(plan.size)
    for name, entry in plan.entries(vec).items():
        if name.endswith(".weight"):
            entry[...] = rng.normal(0.0, 1.0 / np.sqrt(entry.shape[0]), entry.shape)
        elif name.endswith((".gain", ".running_var")):
            entry[...] = 1.0
    return vec


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
                if n < 2:  # no batch variance; tests/nn_oracle.py mirrors this check
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
        if ids.size and (ids.min() < 0 or ids.max() >= spec.num_classes):  # public Batch input
            raise ShapeMismatch("class id outside [0, num_classes)")
        targets = np.zeros((labels.shape[0], spec.num_classes))
        targets[np.arange(labels.shape[0]), ids] = 1.0
        return targets
    if labels.shape[1] != spec.num_classes:
        raise ShapeMismatch("multi-hot labels disagree with num_classes")  # pragma: no cover: no multi-hot source
    return labels.astype(np.float64)


def model_forward(plan: Plan, params: np.ndarray, batch: Batch, mode: str = "train"):
    """Run the network on the parameter vector; returns (predictions, mean loss, cache).

    Train mode uses batch statistics for batch_norm and records them in the
    cache (the caller moves the running stats with ``apply_running_stats``);
    eval mode is deterministic w.r.t. params.
    """
    x = np.asarray(batch.inputs, dtype=np.float64)
    if x.shape[0] < 1:  # public Batch input, as from run_experiment(datasets=...)
        raise ShapeMismatch("empty batch")
    if x.shape[1] != plan.spec.input_dim:
        raise ShapeMismatch(f"input dim {x.shape[1]} != {plan.spec.input_dim}")
    cache = ForwardCache(params=params, train=mode == "train")
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
    n = probs.shape[0]
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
# A step updates the trainable prefix params[:grad.size] of a parameter vector in
# place (the caller sizes grad and AdamState to n_train); running stats stay as they are.

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma and Ba (ICLR 2015)


def local_sgd_step(params: np.ndarray, grad: np.ndarray, eta: float) -> None:
    """One step of w <- w - eta*g."""
    w = params[:grad.shape[0]]
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


def local_adam_step(params: np.ndarray, grad: np.ndarray, state: AdamState, eta: float) -> None:
    """Bias-corrected Adam update.  Each in-place ufunc sees the operands of
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``w = w - eta*m_hat / (sqrt(v_hat) + eps)``, with ``b1, b2, eps`` the
    ``ADAM_*`` constants, so the bits are the same."""
    state.step += 1
    t = state.step
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grad
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * grad * grad
    m_hat = m / (1.0 - ADAM_BETA1**t)
    v_hat = v / (1.0 - ADAM_BETA2**t)
    np.sqrt(v_hat, out=v_hat)
    v_hat += ADAM_EPS
    m_hat *= eta
    m_hat /= v_hat
    w = params[:grad.shape[0]]
    w -= m_hat
