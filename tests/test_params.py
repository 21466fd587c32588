import numpy as np
import pytest

from fedbench.errors import KeyMismatch, WeightSumViolation
from fedbench.nn import init_params
from fedbench.params import (
    ClientWeight,
    ExclusionPolicy,
    ParamSet,
    l2_distance_excluding_norm,
    load_paramset,
    make_weights,
    partition_names,
    save_paramset,
    weighted_average,
)

from conftest import make_model


def paramset(values: dict, norm_names=(), stat_names=()):
    return ParamSet(
        entries={k: np.asarray(v, dtype=np.float64) for k, v in values.items()},
        tags={k: ("norm" if k in norm_names or k in stat_names else "non_norm") for k in values},
        trainable={k: k not in stat_names for k in values},
    )


@pytest.fixture
def bn_params():
    return init_params(make_model(["batch_norm"]), seed=0)


# ---------------------------------------------------------------------------
# partitions

def test_no_norm_model_excludes_nothing():
    params = init_params(make_model([]), seed=0)
    for policy in ExclusionPolicy:
        excluded, aggregated = partition_names(params, policy)
        assert excluded == set()
        assert aggregated == set(params.entries)


def test_bn_all_norm_excluded(bn_params):
    excluded, _ = partition_names(bn_params, ExclusionPolicy.ALL_NORM_EXCLUDED)
    assert excluded == {
        "layer1.gain", "layer1.bias", "layer1.running_mean", "layer1.running_var"
    }


def test_bn_stats_only_excluded(bn_params):
    excluded, _ = partition_names(bn_params, ExclusionPolicy.STATS_ONLY_EXCLUDED)
    assert excluded == {"layer1.running_mean", "layer1.running_var"}


def test_rescaling_aggregated_coincides_with_stats_only_for_ln():
    params = init_params(make_model(["layer_norm"]), seed=0)
    a = partition_names(params, ExclusionPolicy.STATS_ONLY_EXCLUDED)
    b = partition_names(params, ExclusionPolicy.RESCALING_AGGREGATED)
    assert a == b == (set(), set(params.entries))


@pytest.mark.parametrize("policy", list(ExclusionPolicy))
def test_partition_is_disjoint_cover(bn_params, policy):
    excluded, aggregated = partition_names(bn_params, policy)
    assert excluded | aggregated == set(bn_params.entries)
    assert excluded & aggregated == set()


# ---------------------------------------------------------------------------
# weighted average

def test_identical_sets_are_fixpoint(bn_params):
    weights = make_weights({0: 3, 1: 7})
    avg = weighted_average([bn_params, bn_params.copy()], weights)
    for name, value in avg.items():
        assert np.allclose(value, bn_params.entries[name], atol=1e-15)


def test_two_client_arithmetic():
    a = paramset({"w": [1.0, 3.0]})
    b = paramset({"w": [5.0, 7.0]})
    avg = weighted_average([a, b], make_weights({0: 1, 1: 3}))
    assert np.allclose(avg["w"], [4.0, 6.0], atol=1e-15)


def test_matches_naive_elementwise_oracle():
    rng = np.random.default_rng(11)
    sets, sizes = [], {}
    for cid in range(5):
        sets.append(paramset({"a": rng.standard_normal((3, 2)), "b": rng.standard_normal(4)}))
        sizes[cid] = int(rng.integers(1, 50))
    weights = make_weights(sizes)
    avg = weighted_average(sets, weights)
    total = sum(sizes.values())
    for name in ("a", "b"):
        flat = [s.entries[name].ravel() for s in sets]
        for i in range(flat[0].size):
            expected = sum(sizes[c] / total * flat[c][i] for c in range(5))
            assert avg[name].ravel()[i] == pytest.approx(expected, abs=1e-12)


def test_bad_weight_sum_rejected():
    a = paramset({"w": [1.0]})
    with pytest.raises(WeightSumViolation):
        weighted_average([a, a.copy()], [ClientWeight(0, 1, 0.5), ClientWeight(1, 1, 0.6)])


def test_keying_mismatch_rejected():
    a = paramset({"w": [1.0]})
    b = paramset({"v": [1.0]})
    with pytest.raises(KeyMismatch):
        weighted_average([a, b], make_weights({0: 1, 1: 1}))


def test_aggregated_values_within_client_bounds():
    rng = np.random.default_rng(5)
    sets = [paramset({"w": rng.standard_normal(6)}) for _ in range(4)]
    avg = weighted_average(sets, make_weights({i: i + 1 for i in range(4)}))
    stacked = np.stack([s.entries["w"] for s in sets])
    assert np.all(avg["w"] >= stacked.min(axis=0) - 1e-12)
    assert np.all(avg["w"] <= stacked.max(axis=0) + 1e-12)


def test_restricted_to_over_names():
    a = paramset({"w": [1.0], "v": [2.0]})
    avg = weighted_average([a], make_weights({0: 1}), over={"v"})
    assert set(avg) == {"v"}


# ---------------------------------------------------------------------------
# distance diagnostic

def test_distance_zero_for_equal_sets(bn_params):
    assert l2_distance_excluding_norm(bn_params, bn_params.copy()) == 0.0


def test_distance_ignores_norm_entries(bn_params):
    other = bn_params.copy()
    other.entries["layer1.gain"] += 5.0
    other.entries["layer1.running_mean"] += 3.0
    assert l2_distance_excluding_norm(bn_params, other) == 0.0


def test_distance_squared_norm():
    a = paramset({"w": [1.0, 2.0]})
    b = paramset({"w": [0.0, 0.0]})
    assert l2_distance_excluding_norm(a, b) == pytest.approx(5.0, abs=1e-15)


def test_distance_symmetry(bn_params):
    other = bn_params.copy()
    other.entries["layer0.weight"] += 0.3
    d1 = l2_distance_excluding_norm(bn_params, other)
    d2 = l2_distance_excluding_norm(other, bn_params)
    assert d1 == d2 > 0


# ---------------------------------------------------------------------------
# serialization

def test_checkpoint_roundtrip_bitwise(tmp_path, bn_params):
    path = tmp_path / "ckpt.npz"
    save_paramset(bn_params, path)
    loaded = load_paramset(path)
    assert loaded.names() == bn_params.names()
    assert loaded.tags == bn_params.tags
    assert loaded.trainable == bn_params.trainable
    for name in bn_params.names():
        assert np.array_equal(loaded.entries[name], bn_params.entries[name])
