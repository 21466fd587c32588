import math

import numpy as np
import pytest

from fedbench.errors import ConfigError, DegenerateBatch, ShapeMismatch
from fedbench.nn import (
    BN_MOMENTUM,
    LAYER_FIELDS,
    NORM_EPSILON,
    NORM_KINDS,
    Batch,
    ForwardCache,
    LayerSpec,
    ModelSpec,
    Plan,
    apply_running_stats,
    init_params,
    model_forward,
)

from conftest import make_model, random_batch


def norm_forward(kind, x, gain, bias, running_stats, mode, groups=1):
    """Run one norm layer of a plan, stating the fields its kind reads; returns
    (y, running stats after ``apply_running_stats``, cache)."""
    width = x.shape[1]
    values = {"groups": groups}
    spec = ModelSpec(
        input_dim=width,
        layers=[LayerSpec(kind=kind, **{k: values[k] for k in LAYER_FIELDS[kind]})],
        loss="cross_entropy",
        num_classes=width,
    )
    plan = Plan(spec)
    w = plan.params  # the vector the layer's closures are bound to
    w[...] = init_params(plan, seed=0)
    entries = plan.entries(w)
    entries["layer0.gain"][...], entries["layer0.bias"][...] = gain, bias
    if running_stats is not None:
        entries["layer0.running_mean"][...], entries["layer0.running_var"][...] = running_stats
    cache = ForwardCache(params=w, train=mode == "train")
    y = plan.forward[0](x, cache)
    apply_running_stats(w, cache)
    stats = (entries["layer0.running_mean"], entries["layer0.running_var"]) if running_stats else None
    return y, stats, cache


def forward(spec, w, batch, mode):
    return model_forward(Plan(spec), w, batch, mode=mode)


def test_zero_weight_dense_softmax_gives_uniform():
    spec = ModelSpec(
        input_dim=4,
        layers=[LayerSpec(kind="dense", width=3)],
        loss="cross_entropy",
        num_classes=3,
    )
    plan = Plan(spec)
    w = init_params(plan, seed=0)
    plan.entries(w)["layer0.weight"][:] = 0.0
    plan.entries(w)["layer0.bias"][:] = 0.0
    batch = Batch(np.random.default_rng(1).standard_normal((5, 4)), np.array([0, 1, 2, 0, 1]))
    probs, loss, _ = forward(spec, w, batch, mode="eval")
    assert np.allclose(probs, 1.0 / 3.0)
    assert loss == pytest.approx(math.log(3.0), abs=1e-12)


def test_layer_norm_standardizes_arithmetic_sequence():
    x = np.array([[1.0, 2.0, 3.0]])
    y, _, _ = norm_forward("layer_norm", x, np.ones(3), np.zeros(3), None, "train")
    expected = np.array([[-1.0, 0.0, 1.0]]) / math.sqrt(2.0 / 3.0 + NORM_EPSILON)  # var 2/3
    assert np.allclose(y, expected, atol=1e-12)


def test_group_norm_two_point_groups():
    x = np.array([[1.0, 3.0, 5.0, 7.0]])
    y, _, _ = norm_forward("group_norm", x, np.ones(4), np.zeros(4), None, "train", groups=2)
    expected = np.array([[-1.0, 1.0, -1.0, 1.0]]) / math.sqrt(1.0 + NORM_EPSILON)  # var 1
    assert np.allclose(y, expected, atol=1e-12)


def test_constant_batch_bn_output_is_bias():
    x = np.ones((4, 3)) * 2.5
    gain = np.full(3, 1.7)
    bias = np.array([0.1, -0.2, 0.3])
    stats = (np.zeros(3), np.ones(3))
    y, _, _ = norm_forward("batch_norm", x, gain, bias, stats, "train")
    assert np.allclose(y, np.broadcast_to(bias, (4, 3)), atol=1e-6)


def test_bn_running_stat_ema_single_step():
    x = np.array([[1.0], [3.0]])  # batch mean 2.0
    stats = (np.zeros(1), np.ones(1))
    _, (new_mean, new_var), _ = norm_forward(
        "batch_norm", x, np.ones(1), np.zeros(1), stats, "train"
    )
    assert BN_MOMENTUM == 0.1
    assert new_mean[0] == pytest.approx(0.2, abs=1e-15)
    assert new_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0, abs=1e-15)  # batch var = 1


def test_mlp_loss_matches_scalar_oracle():
    # straight-line scalar recomputation of dense -> relu -> dense -> softmax CE
    spec = make_model([], input_dim=3, hidden=4, num_classes=2)
    plan = Plan(spec)
    w = init_params(plan, seed=0)
    batch = random_batch(spec, 8, seed=7)
    _, loss, _ = forward(spec, w, batch, mode="train")

    entries = plan.entries(w)
    w0, b0 = entries["layer0.weight"], entries["layer0.bias"]
    w2, b2 = entries["layer2.weight"], entries["layer2.bias"]
    total = 0.0
    for r in range(8):
        h = [sum(batch.inputs[r][i] * w0[i][j] for i in range(3)) + b0[j] for j in range(4)]
        h = [v if v > 0 else 0.0 for v in h]
        z = [sum(h[j] * w2[j][c] for j in range(4)) + b2[c] for c in range(2)]
        denom = sum(math.exp(v) for v in z)
        total += -math.log(math.exp(z[int(batch.labels[r])]) / denom)
    assert loss == pytest.approx(total / 8, rel=1e-12)


def test_eval_mode_bitwise_deterministic(bn_model, seeded_params):
    batch = random_batch(bn_model, 6, seed=3)
    p1, l1, _ = forward(bn_model, seeded_params, batch, mode="eval")
    p2, l2, _ = forward(bn_model, seeded_params, batch, mode="eval")
    assert np.array_equal(p1, p2)
    assert l1 == l2


def test_loss_permutation_invariance(bn_model, seeded_params):
    batch = random_batch(bn_model, 8, seed=5)
    perm = np.random.default_rng(0).permutation(8)
    shuffled = Batch(batch.inputs[perm], batch.labels[perm])
    _, l1, _ = forward(bn_model, seeded_params, batch, mode="train")
    _, l2, _ = forward(bn_model, seeded_params, shuffled, mode="train")
    assert l1 == pytest.approx(l2, abs=1e-12)


def test_bn_train_batch_of_one_rejected(bn_model, seeded_params):
    batch = random_batch(bn_model, 1, seed=3)
    with pytest.raises(DegenerateBatch):
        forward(bn_model, seeded_params, batch, mode="train")


def test_wrong_input_dim_rejected(bn_model, seeded_params):
    batch = Batch(np.zeros((4, 7)), np.zeros(4, dtype=int))
    with pytest.raises(ShapeMismatch):
        forward(bn_model, seeded_params, batch, mode="train")


def test_empty_batch_rejected(bn_model, seeded_params):
    """``Batch`` is public, so ``model_forward`` checks the one it is given."""
    batch = Batch(np.zeros((0, 5)), np.zeros(0, dtype=int))
    with pytest.raises(ShapeMismatch, match="^empty batch$"):
        forward(bn_model, seeded_params, batch, mode="eval")


def test_class_id_outside_the_model_rejected(bn_model, seeded_params):
    batch = Batch(np.zeros((4, 5)), np.array([0, 1, 2, 3]))
    with pytest.raises(ShapeMismatch, match=r"^a label outside \[0, 3\)$"):
        forward(bn_model, seeded_params, batch, mode="eval")


@pytest.mark.parametrize("label,fault", [(1.5, r"is not an integer"),
                                         (float("nan"), r"outside \[0, 3\)")])
def test_class_id_that_is_not_an_integer_rejected(bn_model, seeded_params, label, fault):
    """Not cast to int64, which would train 1.5 as class 1."""
    batch = Batch(np.zeros((4, 5)), np.array([0.0, 1.0, label, 2.0]))
    with pytest.raises(ShapeMismatch, match=f"^a label (that )?{fault}$"):
        forward(bn_model, seeded_params, batch, mode="eval")


@pytest.mark.parametrize("labels,fault", [
    ([[1.0, 0.0], [0.0, 1.0]], "2 label columns, the model has 3 classes"),
    ([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]], "a multi-hot entry other than 0 or 1"),
], ids=["two_columns", "entry_2"])
def test_multi_hot_labels_that_do_not_fit_the_model_rejected(bn_model, seeded_params,
                                                             labels, fault):
    """A public ``Batch`` of multi-hot rows needs one 0/1 column per class."""
    batch = Batch(np.zeros((2, 5)), np.array(labels))
    with pytest.raises(ShapeMismatch, match=f"^{fault}$"):
        forward(bn_model, seeded_params, batch, mode="eval")


@pytest.mark.parametrize("labels", [
    np.eye(3)[[0, 1, 2, 1]][:, :, None],  # every entry 0 or 1
    np.array(["0", "1", "2", "1"]),
    np.array([0, 1, 1.5 + 2j, 2]),
], ids=["3d", "str", "complex"])
def test_batch_labels_that_are_not_a_1d_or_2d_real_array_rejected(bn_model, seeded_params,
                                                                  labels):
    """(4, 3, 1) labels failed as a builtin broadcast ValueError, string labels
    as numpy's UFuncTypeError, and the complex 1.5+2j trained as class 1."""
    batch = Batch(np.zeros((4, 5)), labels)
    with pytest.raises(ShapeMismatch) as err:
        forward(bn_model, seeded_params, batch, mode="eval")
    assert str(err.value) == (f"labels of dtype {labels.dtype} and shape {labels.shape}, "
                              "not a 1-D or 2-D array of bools, integers or reals")


def model_with(layer, input_dim=5, num_classes=3):
    """dense(6) -> ``layer`` -> relu -> dense under softmax-CE, built in Python."""
    return ModelSpec(
        input_dim=input_dim,
        layers=[LayerSpec(kind="dense", width=6), layer, LayerSpec(kind="relu"),
                LayerSpec(kind="dense", width=3)],
        loss="cross_entropy",
        num_classes=num_classes,
    )


@pytest.mark.parametrize("layer,field", [
    ({"kind": "group_norm", "groups": 0}, "model.layers[1].groups"),
    ({"kind": "dense", "width": "3"}, "model.layers[1].width"),
    ({"kind": "group_norm", "groups": 2.0}, "model.layers[1].groups"),
    ({"kind": "group_norm", "groups": 4}, "model.layers[1].groups"),
    ({"kind": "relu", "width": 4}, "model.layers[1].width"),
    ({"kind": "conv"}, "model.layers[1].kind"),
    ({"kind": "sigmoid_bce_head"}, "model.layers[1].kind"),
])
def test_model_spec_checks_each_layer_with_its_index(layer, field):
    with pytest.raises(ConfigError) as err:
        model_with(LayerSpec(**layer))
    assert err.value.field == field
    # each case but relu's width states its field on a kind that reads it, so
    # that the field's value, not the field itself, is what fails
    assert ("does not read" in err.value.reason) == (layer == {"kind": "relu", "width": 4})


def test_a_norm_layer_states_no_numeric_setting_but_groups():
    """The norm epsilon and batch-norm momentum are the constants NORM_EPSILON
    and BN_MOMENTUM: a layer has no field for either, and the one number a
    norm layer reads is a group norm's ``groups``."""
    assert list(LayerSpec.__dataclass_fields__) == ["kind", "width", "groups"]
    for name in ("epsilon", "momentum"):
        with pytest.raises(TypeError):
            LayerSpec(kind="batch_norm", **{name: 0.1})
    assert [LAYER_FIELDS[kind] for kind in NORM_KINDS] == [(), (), ("groups",)]


@pytest.mark.parametrize("kw,field", [
    ({"input_dim": "8"}, "model.input_dim"),
    ({"num_classes": 3.0}, "model.num_classes"),
    ({"input_dim": True}, "model.input_dim"),
])
def test_model_spec_checks_its_integer_fields(kw, field):
    with pytest.raises(ConfigError) as err:
        model_with(LayerSpec(kind="relu"), **kw)
    assert err.value.field == field


def test_running_stats_committed_only_on_apply(bn_model, seeded_params):
    batch = random_batch(bn_model, 8, seed=5)
    plan = Plan(bn_model)
    w = seeded_params
    running_mean = plan.entries(w)["layer1.running_mean"]
    before = running_mean.copy()
    _, _, cache = model_forward(plan, w, batch, mode="train")
    assert np.array_equal(running_mean, before)
    apply_running_stats(w, cache)
    assert not np.array_equal(running_mean, before)


def test_bce_head_on_multi_hot_labels():
    spec = ModelSpec(
        input_dim=3,
        layers=[LayerSpec(kind="dense", width=2)],
        loss="binary_cross_entropy",
        num_classes=2,
    )
    plan = Plan(spec)
    w = init_params(plan, seed=1)
    plan.entries(w)["layer0.weight"][:] = 0.0
    batch = Batch(np.zeros((3, 3)), np.array([[1, 0], [0, 1], [1, 1]], dtype=float))
    probs, loss, _ = forward(spec, w, batch, mode="eval")
    assert np.allclose(probs, 0.5)
    assert loss == pytest.approx(math.log(2.0), rel=1e-9)


def test_batch_rows_are_the_rows_of_its_inputs():
    x, y = np.zeros((4, 2)), np.zeros(4, dtype=int)
    assert Batch(inputs=x, labels=y).size == 4
    with pytest.raises(TypeError):
        Batch(inputs=x, labels=y, size=2)  # a row count of its own could disagree


@pytest.mark.parametrize("inputs,labels,fault", [
    (np.zeros((4, 5)), np.zeros(3, dtype=int), "^inputs and labels disagree on batch size$"),
    (np.zeros(5), np.zeros(5, dtype=int), r"^inputs of shape \(5,\), the model takes 5 features$"),
], ids=["labels_short", "1d_inputs"])
def test_forward_refuses_a_batch_whose_inputs_and_labels_do_not_fit(bn_model, seeded_params,
                                                                    inputs, labels, fault):
    """``Batch(...)`` converts and checks nothing, so ``model_forward`` checks
    the one it is given: one label short failed as numpy's broadcast
    ValueError, and 1-D inputs as an IndexError."""
    with pytest.raises(ShapeMismatch, match=fault):
        forward(bn_model, seeded_params, Batch(inputs, labels), mode="eval")


@pytest.mark.parametrize("resize", [lambda w: w[:-5], lambda w: np.concatenate([w, w[:3]])],
                         ids=["short", "long"])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_forward_refuses_a_vector_of_another_size(resize, mode):
    """A vector five entries short failed as a builtin IndexError, and one three
    entries long trained on its first entries as if the rest were not there."""
    spec = make_model(["batch_norm"])
    plan = Plan(spec)
    w = resize(init_params(plan, seed=0))
    with pytest.raises(ShapeMismatch, match=rf"^a parameter vector of shape \({w.size},\), "
                                            rf"the plan's has {plan.size} entries$"):
        model_forward(plan, w, random_batch(spec, 4, seed=0), mode=mode)
