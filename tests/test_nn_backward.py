import numpy as np
import pytest

from fedbench.errors import StaleCache
from fedbench.nn import (
    NORM_EPSILON,
    Batch,
    LayerSpec,
    ModelSpec,
    Plan,
    init_params,
    model_backward,
    model_forward,
)

from conftest import (
    assert_grads_close,
    finite_difference_grads,
    forward_loss,
    make_model,
    random_batch,
)


def forward_backward(spec, w, batch):
    """(probs, named gradients) of one train-mode step of a plan."""
    plan = Plan(spec)
    probs, _, cache = model_forward(plan, w, batch, mode="train")
    return probs, plan.entries(model_backward(plan, cache))


@pytest.mark.parametrize("kinds", [[], ["batch_norm"], ["layer_norm"], ["group_norm"]])
def test_a_forward_on_another_vector_in_between_leaves_the_gradient_bitwise(kinds):
    """A plan's layers read ``plan.params``, which a forward on B overwrites;
    the backward of A's cache loads A again, so it gives A's own gradient, the
    one a fresh plan gives, in ``plan.grad``."""
    spec = make_model(kinds)
    plan = Plan(spec)
    a, b = init_params(plan, seed=0), init_params(plan, seed=1)
    batch_a, batch_b = random_batch(spec, 6, seed=10), random_batch(spec, 7, seed=11)
    _, _, cache_a = model_forward(plan, a, batch_a, mode="train")
    model_forward(plan, b, batch_b, mode="train")
    got = model_backward(plan, cache_a)
    fresh = Plan(spec)
    _, _, cache = model_forward(fresh, a, batch_a, mode="train")
    assert got is plan.grad
    assert got.tobytes() == model_backward(fresh, cache).tobytes()


def test_a_second_backward_overwrites_the_first_gradient(bn_model, seeded_params):
    """The backward returns ``plan.grad`` itself: a caller keeps a gradient
    past the next backward on the plan only by copying it."""
    plan = Plan(bn_model)
    _, _, cache_a = model_forward(plan, seeded_params, random_batch(bn_model, 5, seed=1))
    first = model_backward(plan, cache_a)
    kept = first.copy()
    _, _, cache_b = model_forward(plan, seeded_params, random_batch(bn_model, 6, seed=2))
    second = model_backward(plan, cache_b)
    assert second is first is plan.grad
    assert not np.array_equal(first, kept)
    fresh = Plan(bn_model)
    _, _, cache = model_forward(fresh, seeded_params, random_batch(bn_model, 6, seed=2))
    assert first.tobytes() == model_backward(fresh, cache).tobytes()


@pytest.mark.parametrize("kinds", [[], ["batch_norm"], ["layer_norm"], ["group_norm"]])
def test_the_backward_leaves_its_cache_vector_in_plan_params(kinds):
    """The backward of A's cache after a forward on B copies A into
    ``plan.params`` again and leaves A itself as it was."""
    spec = make_model(kinds)
    plan = Plan(spec)
    a, b = init_params(plan, seed=0), init_params(plan, seed=1)
    a_bytes = a.tobytes()
    _, _, cache_a = model_forward(plan, a, random_batch(spec, 6, seed=10), mode="train")
    model_forward(plan, b, random_batch(spec, 7, seed=11), mode="train")
    assert plan.params.tobytes() == b.tobytes() != a_bytes
    model_backward(plan, cache_a)
    assert plan.params.tobytes() == a_bytes == a.tobytes()


@pytest.mark.parametrize("call", ["params", "out", "params_and_out"])
def test_the_old_backward_arguments_are_a_type_error(bn_model, seeded_params, call):
    """The backward takes only the plan and the cache: the vector is the
    cache's and the gradient is ``plan.grad``, which a refused call leaves as
    it was."""
    plan = Plan(bn_model)
    _, _, cache = model_forward(plan, seeded_params, random_batch(bn_model, 4, seed=1))
    args, kwargs = {
        "params": ((plan, seeded_params, cache), {}),
        "out": ((plan, cache), {"out": np.empty(plan.n_train)}),
        "params_and_out": ((plan, seeded_params, cache, plan.grad), {}),
    }[call]
    before = plan.grad.tobytes()
    with pytest.raises(TypeError):
        model_backward(*args, **kwargs)
    assert plan.grad.tobytes() == before


@pytest.mark.parametrize("kinds", [[], ["batch_norm"], ["layer_norm"], ["group_norm"]])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_check_all_layer_kinds(kinds, seed):
    spec = make_model(kinds)
    plan = Plan(spec)
    w = init_params(plan, seed=seed)
    batch = random_batch(spec, 6, seed=seed + 100)
    _, analytic = forward_backward(spec, w, batch)
    numeric = finite_difference_grads(forward_loss(plan, batch), plan, w)
    assert_grads_close(analytic, numeric)


def test_zero_input_kills_weight_gradient():
    spec = ModelSpec(
        input_dim=3,
        layers=[LayerSpec(kind="dense", width=2)],
        loss="cross_entropy",
        num_classes=2,
    )
    w = init_params(Plan(spec), seed=0)
    batch = Batch(np.zeros((4, 3)), np.array([0, 1, 0, 1]))
    probs, grads = forward_backward(spec, w, batch)
    assert np.array_equal(grads["layer0.weight"], np.zeros((3, 2)))
    targets = np.zeros((4, 2))
    targets[np.arange(4), batch.labels] = 1.0
    assert np.allclose(grads["layer0.bias"], np.mean(probs - targets, axis=0), atol=1e-15)


def test_duplicated_batch_same_gradient(bn_model, seeded_params):
    batch = random_batch(bn_model, 5, seed=9)
    doubled = Batch(
        np.vstack([batch.inputs, batch.inputs]),
        np.concatenate([batch.labels, batch.labels]),
    )
    _, g1 = forward_backward(bn_model, seeded_params, batch)
    _, g2 = forward_backward(bn_model, seeded_params, doubled)
    for name in g1:
        assert np.allclose(g1[name], g2[name], atol=1e-12)


def test_grad_permutation_invariance(bn_model, seeded_params):
    batch = random_batch(bn_model, 8, seed=4)
    perm = np.random.default_rng(2).permutation(8)
    shuffled = Batch(batch.inputs[perm], batch.labels[perm])
    _, g1 = forward_backward(bn_model, seeded_params, batch)
    _, g2 = forward_backward(bn_model, seeded_params, shuffled)
    for name in g1:
        assert np.allclose(g1[name], g2[name], atol=1e-12)


def test_eval_cache_rejected(bn_model, seeded_params):
    batch = random_batch(bn_model, 4, seed=1)
    plan = Plan(bn_model)
    w = seeded_params
    _, _, cache = model_forward(plan, w, batch, mode="eval")
    with pytest.raises(StaleCache):
        model_backward(plan, cache)


def test_running_stats_carry_no_gradient(bn_model, seeded_params):
    batch = random_batch(bn_model, 6, seed=2)
    _, grads = forward_backward(bn_model, seeded_params, batch)
    assert "layer1.running_mean" not in grads
    assert "layer1.running_var" not in grads


def test_ln_gain_bias_grads_are_head_error_statistics():
    # rows of variance 1 - eps make LN's x_hat == x, so the gain/bias grads
    # reduce to plain head-error statistics
    spec = ModelSpec(
        input_dim=4,
        layers=[LayerSpec(kind="layer_norm"), LayerSpec(kind="dense", width=2)],
        loss="cross_entropy",
        num_classes=2,
    )
    plan = Plan(spec)
    w = init_params(plan, seed=3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 4))
    x = (x - x.mean(axis=1, keepdims=True)) / x.std(axis=1, keepdims=True)
    x *= np.sqrt(1.0 - NORM_EPSILON)
    batch = Batch(x, rng.integers(0, 2, 6))
    probs, grads = forward_backward(spec, w, batch)
    targets = np.zeros((6, 2))
    targets[np.arange(6), batch.labels] = 1.0
    err = (probs - targets) / 6.0  # head error, already mean-scaled
    dy = err @ plan.entries(w)["layer1.weight"].T
    # x_hat == x, plus the projection that standardization applies to upstream grads
    dxh = dy
    expected_bias_grad_dir = dxh.sum(axis=0)
    assert np.allclose(grads["layer0.bias"], expected_bias_grad_dir, atol=1e-12)
    assert np.allclose(grads["layer0.gain"], (dxh * x).sum(axis=0), atol=1e-12)
