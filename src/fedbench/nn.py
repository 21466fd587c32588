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
``LAYER_FIELDS`` lists for its kind.  The loss picks the output head, a softmax
(``cross_entropy``) or a sigmoid per output (``binary_cross_entropy``), and
``check_labels`` is the one rule for the labels a model takes.  A ``Plan``
compiles a ModelSpec once into one flat float64 vector layout: trainable
non-norm entries, then norm gains and biases (up to ``n_train``), then each
batch-norm layer's running mean and variance as one (2, d) block, so what
the server shares of it is always a prefix (see ``strategies``).  From
``init_params`` to the checkpoint files this vector is the only parameter
representation (see ``params``).  A Plan owns one parameter vector and one
gradient vector, ``Plan.params`` and ``Plan.grad``, allocated when it
compiles; each layer is a pair of closures bound once to fixed views of
those two, for train and eval alike.  ``model_forward`` copies a caller's
other vector into ``Plan.params`` first, and ``model_backward(plan, cache)``
the vector its cache's forward read; the backward writes ``Plan.grad`` and
returns it.  So a Plan serves one call at a time: it is single-threaded,
and a forward on another vector overwrites what ``Plan.params`` held.
``apply_running_stats`` and the optimizer steps update a vector in place,
which only a client round's training vector, ``Plan.params``, may be (see
``params``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateBatch,
    NonFiniteLoss,
    ShapeMismatch,
    StaleCache,
    check_int,
    check_stated,
)
from .params import NON_NORM, NORM

NORM_EPSILON = 1e-5  # added to every norm layer's variance (Ioffe and Szegedy, ICML 2015)
BN_MOMENTUM = 0.1  # batch norm's running-stat EMA step, the same convention; FedBN keeps both
NORM_KINDS = ("batch_norm", "layer_norm", "group_norm")
LOSS_HEADS = ("cross_entropy", "binary_cross_entropy")  # softmax-CE and sigmoid-BCE heads
# The LayerSpec fields each layer kind reads, and their defaults when omitted
LAYER_FIELDS = {"dense": ("width",), "relu": (), "batch_norm": (), "layer_norm": (),
                "group_norm": ("groups",)}
LAYER_DEFAULTS = {"groups": 1}  # width has none


@dataclass
class LayerSpec:
    """A layer kind and the fields ``LAYER_FIELDS`` lists for it (None: not stated)."""
    kind: str
    width: int | None = None   # dense; any other layer keeps its input's width
    groups: int | None = None  # group_norm

    def check(self, path: str) -> None:
        """Kind, the fields it reads and their ranges; ModelSpec runs this for
        each layer, with ``path`` naming the layer by its index in a ConfigError."""
        if self.kind not in LAYER_FIELDS:
            raise ConfigError(f"{path}.kind", f"unknown layer kind {self.kind!r}")
        check_stated(self, path, self.kind, LAYER_FIELDS[self.kind], LAYER_DEFAULTS)
        for name in LAYER_FIELDS[self.kind]:
            check_int(getattr(self, name), f"{path}.{name}", 1)


@dataclass
class ModelSpec:
    input_dim: int
    layers: list[LayerSpec]
    loss: str  # cross_entropy | binary_cross_entropy; picks the output head
    num_classes: int

    def __post_init__(self):
        check_int(self.input_dim, "model.input_dim")
        check_int(self.num_classes, "model.num_classes")
        if self.loss not in LOSS_HEADS:
            raise ConfigError("model.loss", f"unknown loss {self.loss!r}")
        if not self.layers:
            raise ConfigError("model.layers", "model has no layers")
        for i, layer in enumerate(self.layers):
            layer.check(f"model.layers[{i}]")
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

class ForwardCache:
    """What one forward leaves for its backward and ``apply_running_stats``."""
    __slots__ = ("params", "train", "layers", "head", "batch_stats")

    def __init__(self, params: np.ndarray, train: bool):
        self.params = params  # the vector the forward read, reloaded by the backward
        self.train = train
        self.layers = []  # what each layer's backward needs (eval: no ReLU mask)
        self.head = ()  # (probs, targets)
        self.batch_stats = []  # (start, [mean; var])


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
        self.softmax = spec.loss == "cross_entropy"
        # the one vector every layer reads and the one gradient its backward writes
        self.params, self.grad = np.zeros(self.size), np.zeros(self.n_train)
        params, grad = self.entries(self.params), self.entries(self.grad)
        widths = [spec.input_dim] + spec.resolve_widths()
        self.forward, self.backward = [], []
        for i, layer in enumerate(spec.layers):
            if layer.kind == "dense":
                fwd, bwd = _dense(i, params, grad)
            elif layer.kind == "relu":
                fwd, bwd = _relu()
            else:
                fwd, bwd = _norm(self, i, layer, widths[i + 1], params, grad)
            self.forward.append(fwd)
            self.backward.append(bwd)
        self.backward.reverse()

    def entries(self, vec: np.ndarray) -> dict[str, np.ndarray]:
        """Views of the entries ``vec`` holds (a gradient: the trainable ones)
        by name, in the checkpoint's layout order."""
        out = {}
        for name in self.names:
            start, stop, shape = self.slots[name]
            if stop <= vec.shape[0]:
                out[name] = vec[start:stop].reshape(shape)
        return out


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


# Each layer's closures are bound to their entries of Plan.params and Plan.grad
# (``params`` and ``grad``, the views by name).

def _dense(i, params, grad):
    w, b = params[f"layer{i}.weight"], params[f"layer{i}.bias"]
    gw, gb = grad[f"layer{i}.weight"], grad[f"layer{i}.bias"]

    def forward(x, cache):
        cache.layers.append(x)
        return np.dot(x, w) + b  # matmul's gemm without the gufunc dispatch

    def backward(dy, x):
        np.dot(x.T, dy, out=gw)  # dot's out= must be C-contiguous, as gw's view is
        np.add.reduce(dy, 0, out=gb)
        if i:  # nothing consumes the gradient w.r.t. the model's inputs
            return np.dot(dy, w.T)
        return None

    return forward, backward


def _relu():
    def forward(x, cache):
        if cache.train:  # only the backward reads the mask
            cache.layers.append(x > 0)
        return np.maximum(x, 0.0)

    def backward(dy, mask):
        return dy * mask

    return forward, backward


def _norm(plan, i, layer, width, params, grad):
    """BN normalizes per feature over the batch (train) or by the running
    stats (eval); LN/GN normalize per example, layer norm as one group."""
    add = np.add.reduce
    gain, bias = params[f"layer{i}.gain"], params[f"layer{i}.bias"]
    g_gain, g_bias = grad[f"layer{i}.gain"], grad[f"layer{i}.bias"]
    if layer.kind == "batch_norm":
        running_mean = params[f"layer{i}.running_mean"]
        running_var = params[f"layer{i}.running_var"]
        start = plan.slots[f"layer{i}.running_mean"][0]  # mean, then var: one (2, width) block

        def standardize(x, cache):
            if cache.train:
                n = x.shape[0]
                if n < 2:  # no batch variance; tests/nn_oracle.py mirrors this check
                    raise DegenerateBatch("batch_norm train mode needs batch size >= 2")
                stats = np.empty(2 * width)
                mean, var = stats[:width], stats[width:]
                np.divide(add(x, 0, out=mean), n, out=mean)
                xc = x - mean
                np.divide(add(xc * xc, 0, out=var), n, out=var)  # biased (1/N)
                cache.batch_stats.append((start, stats))
            else:
                mean, var = running_mean, running_var
                xc = x - mean
            inv = 1.0 / np.sqrt(var + NORM_EPSILON)
            return xc * inv, inv

        def standardize_backward(dxh, x_hat, inv):
            n = x_hat.shape[0]
            return inv * (dxh - add(dxh, 0) / n - x_hat * (add(dxh * x_hat, 0) / n))
    else:
        groups = layer.groups if layer.kind == "group_norm" else 1
        size = width // groups

        def standardize(x, cache):
            n = x.shape[0]
            xg = x.reshape(n, groups, size)
            xc = xg - add(xg, 2, keepdims=True) / size
            var = add(xc * xc, 2, keepdims=True) / size
            inv = 1.0 / np.sqrt(var + NORM_EPSILON)
            return (xc * inv).reshape(n, width), inv

        def standardize_backward(dxh, x_hat, inv):
            n = x_hat.shape[0]
            dxh_g, xh_g = dxh.reshape(n, groups, size), x_hat.reshape(n, groups, size)
            mean_dxh = add(dxh_g, 2, keepdims=True) / size
            dx = inv * (dxh_g - mean_dxh - xh_g * (add(dxh_g * xh_g, 2, keepdims=True) / size))
            return dx.reshape(n, width)

    def forward(x, cache):
        x_hat, inv = standardize(x, cache)
        cache.layers.append((x_hat, inv))
        return gain * x_hat + bias

    def backward(dy, saved):
        x_hat, inv = saved
        add(dy * x_hat, 0, out=g_gain)
        add(dy, 0, out=g_bias)
        return standardize_backward(dy * gain, x_hat, inv)

    return forward, backward


def check_labels(labels: np.ndarray, num_classes: int) -> None:
    """ShapeMismatch, worded to follow "has", unless ``labels`` of a bool, integer
    or real dtype are 1-D class ids in ``[0, num_classes)`` or 2-D multi-hot rows
    of ``num_classes`` 0/1 entries (a complex 1.5+2j would train as class 1)."""
    if labels.dtype.kind not in "biuf" or labels.ndim not in (1, 2):
        raise ShapeMismatch(f"labels of dtype {labels.dtype} and shape {labels.shape}, "
                            "not a 1-D or 2-D array of bools, integers or reals")
    if labels.ndim == 2:
        if labels.shape[1] != num_classes:
            raise ShapeMismatch(f"{labels.shape[1]} label columns, "
                                f"the model has {num_classes} classes")
        if not ((labels == 0) | (labels == 1)).all():  # 2 is no BCE target
            raise ShapeMismatch("a multi-hot entry other than 0 or 1")
    # a NaN min fails the range, and the cast to int64 would truncate 1.5
    elif labels.size and not 0 <= labels.min() <= labels.max() < num_classes:
        raise ShapeMismatch(f"a label outside [0, {num_classes})")
    elif labels.dtype.kind == "f" and (labels != np.floor(labels)).any():
        raise ShapeMismatch("a label that is not an integer")


def labels_to_targets(spec: ModelSpec, labels: np.ndarray) -> np.ndarray:
    """Class ids -> one-hot; multi-hot rows pass through (as float64).  The
    labels are ones ``check_labels`` has passed."""
    if labels.ndim == 1:
        ids = labels.astype(np.int64)
        targets = np.zeros((labels.shape[0], spec.num_classes))
        targets[np.arange(labels.shape[0]), ids] = 1.0
        return targets
    return labels.astype(np.float64)


def model_forward(plan: Plan, params: np.ndarray, batch: Batch, mode: str = "train"):
    """Run the network on the parameter vector; returns (predictions, mean loss, cache).

    ``params`` is copied into ``plan.params`` unless it is that vector.  Train
    mode uses batch statistics for batch_norm and records them in the cache
    (the caller moves the running stats with ``apply_running_stats``); eval
    mode is deterministic w.r.t. params.  ``Batch`` is public: its inputs are
    checked here, and its labels only where targets are built from them.
    """
    x = np.asarray(batch.inputs, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != plan.spec.input_dim:
        raise ShapeMismatch(f"inputs of shape {x.shape}, the model takes "
                            f"{plan.spec.input_dim} features")
    if x.shape[0] < 1:
        raise ShapeMismatch("empty batch")
    targets = batch.targets
    if targets is None:
        labels = np.asarray(batch.labels)
        check_labels(labels, plan.spec.num_classes)
        if labels.shape[0] != x.shape[0]:
            raise ShapeMismatch("inputs and labels disagree on batch size")
        targets = labels_to_targets(plan.spec, labels)
    if params is not plan.params:
        if params.shape != plan.params.shape:
            raise ShapeMismatch(f"a parameter vector of shape {params.shape}, "
                                f"the plan's has {plan.size} entries")
        np.copyto(plan.params, params)
    cache = ForwardCache(params=params, train=mode == "train")
    for forward in plan.forward:
        x = forward(x, cache)
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
    for start, batch_stats in cache.batch_stats:
        running = params[start:start + batch_stats.shape[0]]  # mean, then var
        np.multiply(running, 1.0 - BN_MOMENTUM, out=running)
        np.add(running, BN_MOMENTUM * batch_stats, out=running)


def model_backward(plan: Plan, cache: ForwardCache) -> np.ndarray:
    """Gradient of the mean loss w.r.t. the trainable prefix of the vector the
    train-mode forward that built ``cache`` read, written into ``plan.grad``,
    which is returned; the next backward overwrites it.  That vector is copied
    into ``plan.params`` again unless it is that vector, so a forward on
    another vector since ``cache``'s cannot change the result."""
    if not cache.train:
        raise StaleCache("backward requires a train-mode cache")
    if cache.params is not plan.params:
        np.copyto(plan.params, cache.params)
    probs, targets = cache.head
    n = probs.shape[0]
    if plan.softmax:
        dx = (probs - targets) / n
    else:
        dx = (probs - targets) / (n * targets.shape[1])
    for backward, saved in zip(plan.backward, reversed(cache.layers)):
        dx = backward(dx, saved)
    return plan.grad


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
