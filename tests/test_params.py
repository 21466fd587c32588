import json

import numpy as np
import pytest

from fedbench.errors import KeyMismatch, WeightSumViolation
from fedbench.nn import Plan, init_params
from fedbench.params import (
    l2_distance_excluding_norm,
    load_checkpoint,
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
ROWS = ("global_start", "global_agg", "client_0", "client_7")


def snapshot(plan):
    """A round's rows, in the order a run writes them, each a random vector."""
    rng = np.random.default_rng(3)
    return {row: rng.standard_normal(plan.size) for row in ROWS}


def write_raw(path, meta, **arrays):
    """A checkpoint file with ``meta`` as its ``__meta__`` and ``arrays`` as its other members."""
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def test_checkpoint_roundtrip_bitwise(tmp_path):
    for kinds in NORM_KINDS:
        plan = Plan(make_model(kinds))
        vectors = snapshot(plan)
        path = tmp_path / f"{'_'.join(kinds)}.npz"
        save_paramset(vectors, path, plan)
        loaded = load_checkpoint(path)
        assert list(loaded) == list(ROWS)
        for row, vec in vectors.items():
            assert list(loaded[row].entries) == plan.names
            assert loaded[row].tags == plan.tags
            assert loaded[row].trainable == plan.trainable
            for name, entry in plan.entries(vec).items():
                assert loaded[row].entries[name].dtype == entry.dtype
                assert np.array_equal(loaded[row].entries[name], entry)
                assert loaded[row].entries[name].flags.owndata  # its own copy, not a view


@pytest.mark.parametrize("kinds", NORM_KINDS, ids=lambda k: k[0] if k else "no_norm")
def test_checkpoint_holds_the_vector_whole(tmp_path, kinds):
    """Each vector of the snapshot is one row of the one ``vectors`` member."""
    plan = Plan(make_model(kinds))
    vectors = {row: init_params(plan, seed=i) for i, row in enumerate(ROWS)}
    path = tmp_path / "ckpt.npz"
    save_paramset(vectors, path, plan)
    with np.load(path) as data:
        assert sorted(data.files) == ["__meta__", "vectors"]
        meta = json.loads(bytes(data["__meta__"]).decode())
        stored = data["vectors"]
    assert meta["format_version"] == 3 and meta["rows"] == list(ROWS)
    assert stored.dtype == np.float64
    assert stored.shape == (len(ROWS), plan.size)
    for stored_row, vec in zip(stored, vectors.values()):
        assert np.array_equal(stored_row, vec)


def test_format_1_checkpoint_is_rejected_naming_its_version(tmp_path, bn_plan, bn_params):
    meta = {"format_version": 1, "names": bn_plan.names, "tags": bn_plan.tags,
            "trainable": bn_plan.trainable}
    arrays = {f"v_{i}": e for i, e in enumerate(bn_plan.entries(bn_params).values())}
    path = tmp_path / "v1.npz"
    write_raw(path, meta, **arrays)
    with pytest.raises(KeyMismatch, match="unsupported checkpoint version 1"):
        load_checkpoint(path)


def test_format_2_checkpoint_is_rejected_naming_its_version(tmp_path, bn_plan, bn_params):
    """Format 2 held one vector per file; no run reads a checkpoint back, so no
    reader of it is kept."""
    meta = {"format_version": 2, "names": bn_plan.names, "tags": bn_plan.tags,
            "trainable": bn_plan.trainable,
            "offsets": [bn_plan.slots[n][0] for n in bn_plan.names],
            "shapes": [bn_plan.slots[n][2] for n in bn_plan.names]}
    path = tmp_path / "v2.npz"
    write_raw(path, meta, vector=bn_params)
    with pytest.raises(KeyMismatch, match="unsupported checkpoint version 2"):
        load_checkpoint(path)


def read_raw(path):
    """(meta, vectors member) of the checkpoint at ``path``."""
    with np.load(path) as data:
        return json.loads(bytes(data["__meta__"]).decode()), data["vectors"]


def test_checkpoint_entry_outside_the_vector_is_rejected(tmp_path, bn_plan):
    path = tmp_path / "ckpt.npz"
    save_paramset(snapshot(bn_plan), path, bn_plan)
    meta, stored = read_raw(path)
    meta["offsets"][-1] = bn_plan.size
    write_raw(path, meta, vectors=stored)
    with pytest.raises(KeyMismatch, match="outside"):
        load_checkpoint(path)


@pytest.mark.parametrize("case", ["extra_row_name", "missing_row_name", "one_vector"])
def test_checkpoint_rows_disagreeing_with_vectors_are_rejected(tmp_path, bn_plan, case):
    path = tmp_path / "ckpt.npz"
    save_paramset(snapshot(bn_plan), path, bn_plan)
    meta, stored = read_raw(path)
    if case == "extra_row_name":
        meta["rows"].append("client_9")
    elif case == "missing_row_name":
        meta["rows"].pop()
    else:  # one row named, over a format-2-shaped member
        meta["rows"], stored = ["global_start"], stored[0]
    write_raw(path, meta, vectors=stored)
    with pytest.raises(KeyMismatch, match="rows named for vectors of shape"):
        load_checkpoint(path)
