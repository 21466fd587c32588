import numpy as np
import pytest

from fedbench.nn import Batch, LayerSpec, ModelSpec, Plan, init_params, model_forward
from fedbench.orchestrator import ClientState
from fedbench.strategies import KNOBS, StrategyConfig

# the knob values a test that does not vary them runs at
KNOB_VALUES = {"mu": 0.0, "alpha": 0.01, "eta_g": 0.01, "gamma": 0.001}


def make_model(kinds, input_dim=5, hidden=6, num_classes=3, groups=2):
    """dense -> [norm] -> relu -> dense under softmax-CE, per requested kinds;
    ``groups`` goes to a group-norm layer, the only kind that reads it."""
    layers = [LayerSpec(kind="dense", width=hidden)]
    for kind in kinds:
        layers.append(LayerSpec(kind=kind, groups=groups if kind == "group_norm" else None))
    layers += [LayerSpec(kind="relu"), LayerSpec(kind="dense", width=num_classes)]
    return ModelSpec(input_dim=input_dim, layers=layers, loss="cross_entropy",
                     num_classes=num_classes)


def strategy_config(algorithm, **knobs):
    """``StrategyConfig`` of ``algorithm`` stating exactly the knobs it reads:
    each at its value in ``knobs``, else at ``KNOB_VALUES``'s."""
    values = {**KNOB_VALUES, **knobs}
    return StrategyConfig(algorithm, **{k: values[k] for k in KNOBS[algorithm]})


def round_client(client_id, vec, n_k=1, diverged=False):
    """A client after its local round, as ``server_aggregate`` reads it: the
    trained vector ``vec``, its ``n_k`` and its divergence flag (no data)."""
    return ClientState(client_id=client_id, n_k=n_k, train=None, val=None, test=None,
                       params=vec, eval_params=vec, diverged=diverged)


def fedopt_scalar_oracle(algorithm, deltas, eta_g, gamma):
    """The global after each round of a one-entry FedOpt server fed
    pseudo-gradients ``deltas``, recomputed in plain floats (Reddi et al.,
    ICLR 2021, with their fixed betas)."""
    beta1, beta2 = 0.9, 0.99
    w, m, v = 0.0, 0.0, gamma**2
    trajectory = []
    for d in deltas:
        m = beta1 * m + (1 - beta1) * d
        if algorithm == "fedadam":
            v = beta2 * v + (1 - beta2) * d * d
        elif algorithm == "fedadagrad":
            v = v + d * d
        else:
            v = v - (1 - beta2) * d * d * np.sign(v - d * d)
            v = max(v, gamma**2)
        w = w + eta_g * m / (v**0.5 + gamma)
        trajectory.append(w)
    return trajectory


def edit_cell(path, line, column, cell):
    """Put ``cell`` at ``column`` of the 1-based ``line`` of a CSV file, or drop
    that cell when ``cell`` is None."""
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    if cell is None:
        del cells[column]
    else:
        cells[column] = cell
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def random_batch(spec, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, spec.input_dim))
    y = rng.integers(0, spec.num_classes, n)
    return Batch(x, y)


def trainable_names(plan):
    return [n for n in plan.names if plan.trainable[n]]


def finite_difference_grads(loss_fn, plan, vec, names=None, h=1e-5):
    """Central finite differences of a scalar ``loss_fn(vec)`` over the entries
    of a plan vector, each perturbed in place through its ``plan.entries`` view."""
    grads = {}
    entries = plan.entries(vec)
    for name in names if names is not None else trainable_names(plan):
        flat = entries[name].reshape(-1)
        gflat = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn(vec)
            flat[i] = orig - h
            down = loss_fn(vec)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads[name] = gflat.reshape(entries[name].shape)
    return grads


def assert_grads_close(analytic, numeric, rtol=1e-4):
    for name, num in numeric.items():
        ana = analytic[name]
        scale = np.maximum(np.abs(num), 1e-3)
        err = np.max(np.abs(ana - num) / scale)
        assert err <= rtol, f"{name}: max relative error {err:.3g}"


@pytest.fixture
def bn_model():
    return make_model(["batch_norm"])


@pytest.fixture
def seeded_params(bn_model):
    return init_params(Plan(bn_model), seed=0)


def forward_loss(plan, batch, mode="train"):
    def loss_fn(vec):
        _, loss, _ = model_forward(plan, vec, batch, mode=mode)
        return loss
    return loss_fn
