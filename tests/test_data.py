import json

import numpy as np
import pytest

from fedbench.data_synth import (
    DEFAULT_SIZES_K5,
    PartitionSpec,
    generate,
    load_client_csv,
    load_partition,
    save_client_csv,
    split_sizes,
    write_partition,
)
from fedbench.benchmarks import feature_shift_spec, label_skew_spec
from fedbench.errors import ConfigError, InfeasibleSizes, MalformedRow, SchemaMismatch
from fedbench.nn import Plan, apply_running_stats, model_forward

from conftest import edit_cell


def spec(kind="label_skew", **kw):
    base = dict(
        kind=kind,
        num_clients=3,
        num_classes=3,
        input_dim=6,
        sizes=[40, 30, 30],
        seed=11,
    )
    base.update(kw)
    return PartitionSpec(**base)


def all_rows(ds):
    x = np.concatenate([ds.train.inputs, ds.val.inputs, ds.test.inputs])
    y = np.concatenate([ds.train.labels, ds.val.labels, ds.test.labels])
    return x, y


def test_split_sizes_examples():
    assert split_sizes(10) == (7, 1, 2)
    assert split_sizes(7) == (4, 1, 2)  # the smallest n with a validation example
    assert split_sizes(100) == (70, 15, 15)
    n_tr, n_va, n_te = split_sizes(4008)
    assert n_tr + n_va + n_te == 4008


@pytest.mark.parametrize("n", [2, 6])
def test_spec_rejects_a_client_without_a_validation_example(n):
    assert split_sizes(n)[1] == 0
    with pytest.raises(ConfigError) as err:
        spec(sizes=[40, 30, n])
    assert err.value.field == "data.sizes"
    assert generate(spec(sizes=[40, 30, 7]))[2].val.size == 1


def test_spec_validation():
    with pytest.raises(ConfigError):
        spec(num_clients=2)  # sizes length mismatch
    with pytest.raises(ConfigError):
        spec(sizes=[40, 30, 1])  # client below minimum size
    with pytest.raises(ConfigError):
        spec(kind="bogus")
    with pytest.raises(ConfigError):
        spec(skew_concentration=0.0)


def test_generation_bitwise_deterministic():
    for kind in ("label_skew", "feature_shift", "iid"):
        a = generate(spec(kind))
        b = generate(spec(kind))
        for da, db in zip(a, b):
            assert np.array_equal(da.train.inputs, db.train.inputs)
            assert np.array_equal(da.train.labels, db.train.labels)
            assert np.array_equal(da.test.inputs, db.test.inputs)


@pytest.mark.parametrize("seed", [0, 11])
def test_iid_is_feature_shift_at_scale_zero(seed):
    iid = generate(spec("iid", seed=seed))
    shift = generate(spec("feature_shift", seed=seed, shift_scale=0.0))
    for a, b in zip(iid, shift, strict=True):
        for split in ("train", "val", "test"):
            assert np.array_equal(getattr(a, split).inputs, getattr(b, split).inputs)
            assert np.array_equal(getattr(a, split).labels, getattr(b, split).labels)


def test_splits_disjoint_and_cover():
    for ds in generate(spec()):
        n = ds.train.inputs.shape[0] + ds.val.inputs.shape[0] + ds.test.inputs.shape[0]
        assert n == ds.n_k
        tr, va, te = split_sizes(ds.n_k)
        assert ds.train.inputs.shape[0] == tr
        assert ds.val.inputs.shape[0] == va
        assert ds.test.inputs.shape[0] == te


def test_dirichlet_high_concentration_near_uniform():
    s = spec(skew_concentration=1e6, sizes=[3000, 3000, 3000])
    for ds in generate(s):
        _, y = all_rows(ds)
        counts = np.bincount(y.astype(int), minlength=3) / y.size
        assert np.all(np.abs(counts - 1 / 3) < 0.05)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dirichlet_low_concentration_skews(seed):
    s = PartitionSpec(
        kind="label_skew",
        num_clients=5,
        num_classes=3,
        input_dim=6,
        sizes=list(DEFAULT_SIZES_K5),
        skew_concentration=0.1,
        seed=seed,
    )
    hit = False
    for ds in generate(s):
        _, y = all_rows(ds)
        counts = np.bincount(y.astype(int), minlength=3) / y.size
        if counts.max() > 0.5:
            hit = True
    assert hit


def test_label_skew_class_conditional_means_shared():
    s = spec(sizes=[2000, 2000, 2000], class_separation=3.0)
    datasets = generate(s)
    for c in range(3):
        means = []
        for ds in datasets:
            x, y = all_rows(ds)
            mask = y == c
            if mask.sum() > 50:
                means.append(x[mask].mean(axis=0))
        for m in means[1:]:
            assert np.linalg.norm(m - means[0]) < 0.5


def test_feature_shift_scale_controls_client_divergence():
    def mean_pairwise_distance(scale):
        s = spec(kind="feature_shift", sizes=[1500, 1500, 1500], shift_scale=scale)
        centers = []
        for ds in generate(s):
            x, _ = all_rows(ds)
            centers.append(x.mean(axis=0))
        dists = [
            np.linalg.norm(centers[i] - centers[j])
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        return float(np.mean(dists))

    assert mean_pairwise_distance(1.0) > 10 * max(mean_pairwise_distance(0.0), 1e-12)


def test_default_sizes_constant():
    assert DEFAULT_SIZES_K5 == [400, 350, 282, 238, 226]


def test_bn_running_stats_diverge_across_clients():
    from fedbench.nn import init_params

    from conftest import make_model

    s = spec(kind="feature_shift", shift_scale=1.0, sizes=[200, 200, 200])
    datasets = generate(s)
    model = make_model(["batch_norm"], input_dim=6, hidden=8, num_classes=3)
    stats = []
    for ds in datasets:
        plan = Plan(model)
        params = init_params(plan, seed=0)
        _, _, cache = model_forward(plan, params, ds.train, mode="train")
        apply_running_stats(params, cache)
        stats.append(plan.entries(params)["layer1.running_mean"].copy())
    assert not np.allclose(stats[0], stats[1], atol=1e-6)


# ---------------------------------------------------------------------------
# CSV / manifest

def test_csv_round_trip_bitwise(tmp_path):
    ds = generate(spec())[0]
    path = tmp_path / "client_0.csv"
    save_client_csv(ds, path)
    back = load_client_csv(path, num_classes=3, client_id=0)
    assert np.array_equal(ds.train.inputs, back.train.inputs)
    assert np.array_equal(ds.train.labels, back.train.labels)
    assert np.array_equal(ds.val.inputs, back.val.inputs)
    assert np.array_equal(ds.test.inputs, back.test.inputs)
    assert np.array_equal(ds.val.labels, back.val.labels)
    assert np.array_equal(ds.test.labels, back.test.labels)


def test_malformed_row_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("feature_0,feature_1,label\n0.1,0.2,1\n0.3,oops,0\n")
    with pytest.raises(MalformedRow) as err:
        load_client_csv(path, num_classes=2)
    assert err.value.line_number == 3


def test_non_integral_label_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("feature_0,label\n0.1,0.5\n0.2,1\n0.3,1\n0.4,0\n")
    with pytest.raises(MalformedRow) as err:
        load_client_csv(path, num_classes=2)
    assert err.value.line_number == 2


def test_label_outside_num_classes_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("feature_0,label\n0.1,0\n0.2,1\n0.3,nan\n0.4,-1\n")
    for num_classes, line in ((1, 3), (2, 4)):
        with pytest.raises(MalformedRow) as err:
            load_client_csv(path, num_classes=num_classes)
        assert err.value.line_number == line


def test_manifest_class_count_below_its_labels_is_malformed_row(tmp_path):
    """A manifest saying 2 classes over CSVs holding labels 0-2 does not load."""
    manifest_path = write_partition(spec(num_classes=3), tmp_path)
    manifest = json.loads(manifest_path.read_text())
    manifest["spec"]["num_classes"] = 2
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(MalformedRow, match="outside \\[0, 2\\)") as err:
        load_partition(manifest_path)
    labels = generate(spec(num_classes=3))[0]
    rows = np.concatenate([labels.train.labels, labels.val.labels, labels.test.labels])
    assert err.value.line_number == 2 + int(np.argmax(rows == 2))


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_feature_rejected(tmp_path, cell):
    manifest = write_partition(spec(), tmp_path)
    edit_cell(tmp_path / "client_1.csv", 6, 1, cell)
    with pytest.raises(MalformedRow, match="non-finite feature cell") as err:
        load_partition(manifest)
    assert err.value.line_number == 6


@pytest.mark.parametrize("client,line,column,cell,message", [
    (2, 5, 3, "nan", "non-finite feature cell in ["),
    (1, 7, -1, "7", "label '7' outside [0, 3)"),
    (0, 3, 0, "oops", "non-numeric feature cell in ["),
    (1, 4, -1, None, "expected 7 cells, got 6"),
])
def test_malformed_row_names_its_csv(tmp_path, client, line, column, cell, message):
    """In a partition of several clients, a malformed row names its file as
    well as its line."""
    manifest = write_partition(spec(), tmp_path)
    path = tmp_path / f"client_{client}.csv"
    edit_cell(path, line, column, cell)
    with pytest.raises(MalformedRow) as err:
        load_partition(manifest)
    assert str(err.value).startswith(f"{path}: line {line}: {message}")
    assert err.value.line_number == line


def test_wrong_cell_count_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("feature_0,feature_1,label\n0.1,0.2,1\n0.3,0\n")
    with pytest.raises(MalformedRow) as err:
        load_client_csv(path, num_classes=2)
    assert err.value.line_number == 3


def test_schema_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x0,x1,y\n0.1,0.2,1\n")
    with pytest.raises(SchemaMismatch):
        load_client_csv(path, num_classes=2)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(SchemaMismatch):
        load_client_csv(empty, num_classes=2)


def write_rows(path, n):
    path.write_text("feature_0,label\n" + "".join(f"{i / 10},{i % 2}\n" for i in range(n)))
    return path


def test_csv_too_short_for_a_validation_split_is_infeasible(tmp_path):
    with pytest.raises(InfeasibleSizes):
        load_client_csv(write_rows(tmp_path / "six.csv", 6), num_classes=2)
    ds = load_client_csv(write_rows(tmp_path / "seven.csv", 7), num_classes=2)
    assert (ds.train.size, ds.val.size, ds.test.size) == (4, 1, 2)


def test_partition_manifest_round_trip(tmp_path):
    s = spec()
    write_partition(s, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["spec"]["num_clients"] == 3
    assert len(manifest["clients"]) == 3
    direct = generate(s)
    loaded = load_partition(tmp_path / "manifest.json")
    for a, b in zip(direct, loaded):
        assert np.array_equal(a.train.inputs, b.train.inputs)
        assert np.array_equal(a.train.labels, b.train.labels)
        assert np.array_equal(a.test.labels, b.test.labels)


@pytest.mark.parametrize("field,value", [
    ("num_clients", "five"), ("num_classes", 3.0), ("input_dim", True), ("seed", None),
    ("sizes", [40, "30", 30]), ("sizes", "40,30,30"), ("shift_scale", "big"),
    ("skew_concentration", False), ("class_separation", [2.0]),
    ("num_clients", 0), ("num_classes", 0), ("input_dim", 0), ("seed", -1),
    ("shift_scale", float("inf")), ("skew_concentration", float("nan")),
    ("class_separation", float("-inf")),
])
def test_spec_field_types(field, value):
    # a kind that reads the field, so that its value is what fails
    with pytest.raises(ConfigError) as err:
        spec("feature_shift" if field == "shift_scale" else "label_skew", **{field: value})
    assert err.value.field == f"data.{field}"
    assert err.value.reason.startswith("must ")


def test_label_skew_needs_a_feature_per_class():
    with pytest.raises(ConfigError) as err:
        generate(spec(num_classes=7, input_dim=6))
    assert err.value.field == "data.num_classes"
    assert len(generate(spec("feature_shift", num_classes=7, input_dim=6))) == 3


@pytest.mark.parametrize("make",[feature_shift_spec, label_skew_spec])
def test_benchmark_specs_tile_the_default_sizes(make):
    assert make(num_clients=3).sizes == DEFAULT_SIZES_K5[:3]
    spec = make(num_clients=10)
    assert spec.sizes == DEFAULT_SIZES_K5 * 2
    assert [ds.n_k for ds in generate(spec)] == spec.sizes
