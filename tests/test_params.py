import json

import numpy as np
import pytest

from fedbench.errors import KeyMismatch, WeightSumViolation
from fedbench.nn import Plan, init_params
from fedbench.params import (
    l2_distance_excluding_norm,
    load_paramset,
    make_weights,
    save_paramset,
    weighted_average,
)
from fedbench.strategies import ALGORITHMS, NORM_EXCLUDING, StrategyConfig

from conftest import make_model


@pytest.fixture
def bn_plan():
    return Plan(make_model(["batch_norm"]))


@pytest.fixture
def bn_params(bn_plan):
    return init_params(bn_plan, seed=0)


def partition_names(plan, algorithm):
    """(excluded, aggregated) names: the entries after and within the
    algorithm's shared prefix."""
    k = StrategyConfig(algorithm).shared_prefix(plan)
    aggregated = {n for n, (start, stop, _) in plan.slots.items() if stop <= k}
    return set(plan.slots) - aggregated, aggregated


# ---------------------------------------------------------------------------
# partitions

def test_no_norm_model_excludes_nothing():
    plan = Plan(make_model([]))
    for algorithm in ALGORITHMS:
        excluded, aggregated = partition_names(plan, algorithm)
        assert excluded == set()
        assert aggregated == set(plan.names)
        assert StrategyConfig(algorithm).shared_prefix(plan) == plan.size


def test_bn_all_norm_excluded(bn_plan):
    for algorithm in ALGORITHMS:
        excluded, _ = partition_names(bn_plan, algorithm)
        assert excluded == ({"layer1.gain", "layer1.bias", "layer1.running_mean",
                             "layer1.running_var"} if algorithm in NORM_EXCLUDING else set())


@pytest.mark.parametrize("algorithms", [
    [a for a in ALGORITHMS if a not in NORM_EXCLUDING], NORM_EXCLUDING,
], ids=["none", "all_norm_excluded"])  # what the algorithms keep local
def test_partition_is_disjoint_cover(bn_plan, algorithms):
    for algorithm in algorithms:
        excluded, aggregated = partition_names(bn_plan, algorithm)
        assert excluded | aggregated == set(bn_plan.names)
        assert excluded & aggregated == set()
        # the prefix ends on an entry boundary
        k = StrategyConfig(algorithm).shared_prefix(bn_plan)
        assert all(stop <= k or start >= k for start, stop, _ in bn_plan.slots.values())


# ---------------------------------------------------------------------------
# weighted average

def test_identical_sets_are_fixpoint(bn_params, bn_plan):
    weights = make_weights([3, 7])
    vec = bn_params
    avg = weighted_average([vec, vec.copy()], weights)
    assert np.allclose(avg, vec, atol=1e-15)


def test_two_client_arithmetic():
    avg = weighted_average([np.array([1.0, 3.0]), np.array([5.0, 7.0])],
                           make_weights([1, 3]))
    assert np.allclose(avg, [4.0, 6.0], atol=1e-15)


def test_matches_naive_elementwise_oracle():
    rng = np.random.default_rng(11)
    vectors, sizes = [], []
    for _ in range(5):
        vectors.append(rng.standard_normal(10))
        sizes.append(int(rng.integers(1, 50)))
    weights = make_weights(sizes)
    avg = weighted_average(vectors, weights)
    total = sum(sizes)
    for i in range(10):
        expected = sum(sizes[c] / total * vectors[c][i] for c in range(5))
        assert avg[i] == pytest.approx(expected, abs=1e-12)


def test_bad_weight_sum_rejected():
    a = np.array([1.0])
    with pytest.raises(WeightSumViolation):
        weighted_average([a, a.copy()], [0.5, 0.6])


def test_keying_mismatch_rejected():
    with pytest.raises(KeyMismatch):
        weighted_average([np.array([1.0]), np.array([1.0, 2.0])], make_weights([1, 1]))


def test_aggregated_values_within_client_bounds():
    rng = np.random.default_rng(5)
    vectors = [rng.standard_normal(6) for _ in range(4)]
    avg = weighted_average(vectors, make_weights([1, 2, 3, 4]))
    stacked = np.stack(vectors)
    assert np.all(avg >= stacked.min(axis=0) - 1e-12)
    assert np.all(avg <= stacked.max(axis=0) + 1e-12)


def test_restricted_to_over_names():
    """A slice of the vectors averages only the entries it covers."""
    vec = np.array([1.0, 2.0])
    avg = weighted_average([vec[1:]], make_weights([1]))
    assert avg.tolist() == [2.0]


# ---------------------------------------------------------------------------
# distance diagnostic

def test_distance_zero_for_equal_sets(bn_params, bn_plan):
    vec = bn_params
    assert l2_distance_excluding_norm(vec, vec.copy(), bn_plan.non_norm_slots) == 0.0


def test_distance_ignores_norm_entries(bn_params, bn_plan):
    a, b = bn_params, bn_params.copy()
    bn_plan.entries(b)["layer1.gain"] += 5.0
    bn_plan.entries(b)["layer1.running_mean"] += 3.0
    assert l2_distance_excluding_norm(a, b, bn_plan.non_norm_slots) == 0.0


def test_distance_squared_norm():
    a, b = np.array([1.0, 2.0, 9.0]), np.array([0.0, 0.0, 0.0])  # entry 2 is norm
    assert l2_distance_excluding_norm(a, b, [(0, 2)]) == pytest.approx(5.0, abs=1e-15)


def test_distance_symmetry(bn_params, bn_plan):
    a, b = bn_params, bn_params.copy()
    bn_plan.entries(b)["layer0.weight"] += 0.3
    d1 = l2_distance_excluding_norm(a, b, bn_plan.non_norm_slots)
    d2 = l2_distance_excluding_norm(b, a, bn_plan.non_norm_slots)
    assert d1 == d2 > 0


# ---------------------------------------------------------------------------
# serialization

NORM_KINDS = [["batch_norm"], ["layer_norm"], ["group_norm"], []]


def test_checkpoint_roundtrip_bitwise(tmp_path):
    for kinds in NORM_KINDS:
        plan = Plan(make_model(kinds))
        vec = np.random.default_rng(3).standard_normal(plan.size)
        path = tmp_path / f"{'_'.join(kinds)}.npz"
        save_paramset(vec, path, plan)
        loaded = load_paramset(path)
        assert list(loaded.entries) == plan.names
        assert loaded.tags == plan.tags
        assert loaded.trainable == plan.trainable
        for name, entry in plan.entries(vec).items():
            assert loaded.entries[name].dtype == entry.dtype
            assert np.array_equal(loaded.entries[name], entry)
            assert loaded.entries[name].flags.owndata  # its own copy, not a view


@pytest.mark.parametrize("kinds", NORM_KINDS, ids=lambda k: k[0] if k else "no_norm")
def test_checkpoint_holds_the_vector_whole(tmp_path, kinds):
    plan = Plan(make_model(kinds))
    vec = init_params(plan, seed=1)
    path = tmp_path / "ckpt.npz"
    save_paramset(vec, path, plan)
    with np.load(path) as data:
        assert sorted(data.files) == ["__meta__", "vector"]
        stored = data["vector"]
    assert stored.dtype == np.float64
    assert stored.shape == (plan.size,)
    assert np.array_equal(stored, vec)


def test_format_1_checkpoint_is_rejected_naming_its_version(tmp_path, bn_plan, bn_params):
    meta = {"format_version": 1, "names": bn_plan.names, "tags": bn_plan.tags,
            "trainable": bn_plan.trainable}
    arrays = {f"v_{i}": e for i, e in enumerate(bn_plan.entries(bn_params).values())}
    path = tmp_path / "v1.npz"
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)
    with pytest.raises(KeyMismatch, match="version 1"):
        load_paramset(path)


def test_checkpoint_entry_outside_the_vector_is_rejected(tmp_path, bn_plan, bn_params):
    path = tmp_path / "ckpt.npz"
    save_paramset(bn_params, path, bn_plan)
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
    meta["offsets"][-1] = bn_plan.size
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
             vector=bn_params)
    with pytest.raises(KeyMismatch, match="outside"):
        load_paramset(path)
