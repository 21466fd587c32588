"""Synthetic heterogeneous multi-client datasets and a per-client CSV loader.

``generate`` is the one draw loop: each client opens its own stream
``[seed, 1, client_id]``, draws its rows by the spec's kind, shuffles them
once and splits them.  The kinds differ only in the draw, and a spec holds
the fields its kind's draw reads (``DATA_FIELDS``):

* label skew   — clients share class-conditional feature distributions but
                 draw class proportions from a symmetric Dirichlet;
* feature shift — clients share the labeling rule but see client-specific
                 affine-transformed inputs;
* iid          — feature shift at scale 0, the identity transform.

Per-client data is split 70/15/15 (train = floor(0.7 n), val = floor(0.15 n),
test = remainder), so a client needs at least 7 examples for a non-empty
validation split.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    InfeasibleSizes,
    MalformedRow,
    SchemaMismatch,
    check_int,
    check_real,
    check_stated,
    stated,
)
from .metrics import write_csv
from .nn import Batch

# default size imbalance for K=5, shaped like a realistic multi-site cohort
DEFAULT_SIZES_K5 = [400, 350, 282, 238, 226]
MIN_CLIENT_SIZE = 7  # the smallest n with floor(0.15 n) >= 1
# The PartitionSpec fields each kind's draw reads, and their defaults when omitted
DATA_FIELDS = {"label_skew": ("skew_concentration", "class_separation"),
               "feature_shift": ("shift_scale",), "iid": ()}
DATA_DEFAULTS = {"skew_concentration": 0.5, "class_separation": 2.0, "shift_scale": 1.0}


@dataclass
class PartitionSpec:
    """A partition kind and the fields ``DATA_FIELDS`` lists for it (None: not stated)."""
    kind: str  # label_skew | feature_shift | iid
    num_clients: int
    num_classes: int
    input_dim: int
    sizes: list[int]
    skew_concentration: float | None = None  # label_skew's Dirichlet concentration
    shift_scale: float | None = None         # feature_shift
    class_separation: float | None = None    # label_skew
    seed: int = 0

    def __post_init__(self):
        for name, low in (("num_clients", 1), ("num_classes", 1), ("input_dim", 1), ("seed", 0)):
            check_int(getattr(self, name), f"data.{name}", low)
        if not isinstance(self.sizes, (list, tuple)):
            raise ConfigError("data.sizes", "must be a list of integers")
        for s in self.sizes:
            check_int(s, "data.sizes")
        if self.kind not in DATA_FIELDS:
            raise ConfigError("data.kind", f"unknown kind {self.kind!r}")
        check_stated(self, "data", self.kind, DATA_FIELDS[self.kind], DATA_DEFAULTS)
        for name in DATA_FIELDS[self.kind]:
            check_real(getattr(self, name), f"data.{name}")
        if len(self.sizes) != self.num_clients:
            raise ConfigError("data.sizes", "one size per client required")
        if any(s < MIN_CLIENT_SIZE for s in self.sizes):
            raise ConfigError("data.sizes", f"every client needs >= {MIN_CLIENT_SIZE} examples")
        if self.kind == "label_skew" and self.skew_concentration <= 0:
            raise ConfigError("data.skew_concentration", "must be > 0")
        if self.kind == "feature_shift" and self.shift_scale < 0:
            raise ConfigError("data.shift_scale", "must be >= 0")


@dataclass
class ClientDataset:
    client_id: int
    train: Batch
    val: Batch
    test: Batch
    n_k: int
    class_histogram: list[int]


def split_sizes(n: int) -> tuple[int, int, int]:
    """70/15/15 split: floor for train and val, remainder to test."""
    n_train = int(np.floor(0.7 * n))
    n_val = int(np.floor(0.15 * n))
    return n_train, n_val, n - n_train - n_val


def _split(inputs: np.ndarray, labels: np.ndarray, client_id: int,
           num_classes: int) -> ClientDataset:
    """70/15/15 split in row order."""
    n = inputs.shape[0]
    if n < MIN_CLIENT_SIZE:
        raise InfeasibleSizes(f"client {client_id} has {n} examples, fewer than the "
                              f"{MIN_CLIENT_SIZE} a non-empty validation split needs")
    n_train, n_val, _ = split_sizes(n)
    hist = np.bincount(labels.astype(np.int64), minlength=num_classes)
    return ClientDataset(
        client_id=client_id,
        train=Batch.from_arrays(inputs[:n_train], labels[:n_train]),
        val=Batch.from_arrays(inputs[n_train:n_train + n_val], labels[n_train:n_train + n_val]),
        test=Batch.from_arrays(inputs[n_train + n_val:], labels[n_train + n_val:]),
        n_k=n,
        class_histogram=hist.tolist(),
    )


def generate(spec: PartitionSpec) -> list[ClientDataset]:
    """Each client's rows from its own stream ``[seed, 1, client_id]``: the
    kind's draw, one shuffle, then the 70/15/15 split."""
    draw = _label_skew_draw(spec) if spec.kind == "label_skew" else _feature_shift_draw(spec)
    clients = []
    for cid, n in enumerate(spec.sizes):
        crng = np.random.default_rng([spec.seed, 1, cid])
        inputs, labels = draw(crng, n)
        order = crng.permutation(n)
        clients.append(_split(inputs[order], labels[order], cid, spec.num_classes))
    return clients


def _label_skew_draw(spec: PartitionSpec):
    """Pure label shift: shared class Gaussians whose means sit on a scaled
    simplex, and a Dirichlet class mix per client."""
    if spec.num_classes > spec.input_dim:
        raise ConfigError("data.num_classes", "needs num_classes <= input_dim")
    means = np.zeros((spec.num_classes, spec.input_dim))
    np.fill_diagonal(means, spec.class_separation)

    def draw(crng: np.random.Generator, n: int):
        props = crng.dirichlet(np.full(spec.num_classes, spec.skew_concentration))
        labels = np.repeat(np.arange(spec.num_classes), _largest_remainder(props, n))
        return crng.standard_normal((n, spec.input_dim)) + means[labels], labels
    return draw


def _largest_remainder(props: np.ndarray, n: int) -> np.ndarray:
    counts = np.floor(props * n).astype(int)
    short = n - counts.sum()
    remainders = props * n - counts
    for idx in np.argsort(-remainders)[:short]:
        counts[idx] += 1
    if counts.sum() != n:
        raise InfeasibleSizes(f"cannot place {n} examples")  # pragma: no cover: float-rounding guard
    return counts


def _feature_shift_draw(spec: PartitionSpec):
    """One global label rule drawn from ``[seed, 0]``, and a random affine
    input transform per client; iid is this draw at scale 0."""
    w_true = np.random.default_rng([spec.seed, 0]).standard_normal(
        (spec.input_dim, spec.num_classes))
    s = spec.shift_scale if spec.kind == "feature_shift" else 0.0

    def draw(crng: np.random.Generator, n: int):
        base = crng.standard_normal((n, spec.input_dim))
        labels = np.argmax(base @ w_true, axis=1)
        scale = crng.uniform(1.0 - s, 1.0 + s, spec.input_dim)
        shift = crng.uniform(-s, s, spec.input_dim)
        return base * scale + shift, labels
    return draw


# ---------------------------------------------------------------------------
# CSV round-trip

def save_client_csv(dataset: ClientDataset, path) -> None:
    """Write all splits as one CSV (header feature_0..feature_{d-1},label)."""
    d = dataset.train.inputs.shape[1]
    write_csv(path, [f"feature_{i}" for i in range(d)] + ["label"],
              ([repr(float(v)) for v in row] + [int(label)]
               for batch in (dataset.train, dataset.val, dataset.test)
               for row, label in zip(batch.inputs, batch.labels)))


def load_client_csv(path, num_classes: int, client_id: int = 0) -> ClientDataset:
    """Parse a per-client CSV and split it 70/15/15 in file order, so a
    save/load round-trip reproduces the original splits.  Each feature must be
    finite and each label a class id in ``[0, num_classes)``; a row that is
    not is a MalformedRow naming ``path`` and its line."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaMismatch(f"{path}: empty file")
        d = len(header) - 1
        expected = [f"feature_{i}" for i in range(d)] + ["label"]
        if header != expected:
            raise SchemaMismatch(f"{path}: header {header!r} != {expected!r}")
        inputs, labels = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != d + 1:
                raise MalformedRow(path, lineno, f"expected {d + 1} cells, got {len(row)}")
            try:
                inputs.append([float(v) for v in row[:-1]])
            except ValueError:
                raise MalformedRow(path, lineno, f"non-numeric feature cell in {row!r}")
            try:
                label = float(row[-1])
            except ValueError:
                raise MalformedRow(path, lineno, f"non-numeric label {row[-1]!r}")
            if not 0 <= label < num_classes:  # also rejects nan and inf
                raise MalformedRow(path, lineno, f"label {row[-1]!r} outside [0, {num_classes})")
            if label != int(label):
                raise MalformedRow(path, lineno, f"label {row[-1]!r} is not integral")
            labels.append(int(label))
    inputs = np.asarray(inputs, dtype=np.float64)
    finite = np.isfinite(inputs)
    if not finite.all():
        row = int(np.flatnonzero(~finite.all(axis=1))[0])
        raise MalformedRow(path, row + 2, f"non-finite feature cell in {inputs[row].tolist()!r}")
    labels = np.asarray(labels, dtype=np.int64)
    return _split(inputs, labels, client_id, num_classes)


# ---------------------------------------------------------------------------
# partition manifest

def write_partition(spec: PartitionSpec, out_dir) -> Path:
    """Generate, write per-client CSVs plus a manifest; returns manifest path."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    clients = generate(spec)
    entries = []
    for ds in clients:
        csv_path = out_dir / f"client_{ds.client_id}.csv"
        save_client_csv(ds, csv_path)
        entries.append({
            "client_id": ds.client_id,
            "path": csv_path.name,
            "n_k": ds.n_k,
            "class_histogram": ds.class_histogram,
        })
    manifest = {"spec": asdict(spec, dict_factory=stated), "clients": entries}
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2))
    return manifest_path


def load_partition(manifest_path) -> list[ClientDataset]:
    """The clients a manifest lists; SchemaMismatch naming the manifest if it
    is unreadable, lacks a positive integer ``spec.num_classes`` or
    ``clients``, lists no client, lists a client_id that is not a
    non-negative integer or twice, names a client file that does not exist,
    gives a client an ``n_k`` or ``class_histogram`` its CSV does not have
    (both are optional), or holds CSVs with different feature counts."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
        num_classes = manifest["spec"]["num_classes"]
        clients = [(manifest_path.parent / entry["path"], entry["client_id"], entry)
                   for entry in manifest["clients"]]
    except OSError as exc:
        raise SchemaMismatch(f"{manifest_path}: cannot read manifest: {exc.strerror}")
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise SchemaMismatch(f"{manifest_path}: not a JSON manifest: {exc}")
    except (KeyError, TypeError):
        raise SchemaMismatch(f"{manifest_path}: needs spec.num_classes and clients, "
                             "each with path and client_id")
    if not isinstance(num_classes, int) or isinstance(num_classes, bool) or num_classes < 1:
        raise SchemaMismatch(f"{manifest_path}: spec.num_classes must be a positive integer")
    if not clients:
        raise SchemaMismatch(f"{manifest_path}: lists no clients")
    ids = []
    for path, client_id, _ in clients:
        if not isinstance(client_id, int) or isinstance(client_id, bool) or client_id < 0:
            raise SchemaMismatch(f"{manifest_path}: client_id {client_id!r} is not a "
                                 "non-negative integer")
        if client_id in ids:
            raise SchemaMismatch(f"{manifest_path}: client_id {client_id} is listed twice")
        ids.append(client_id)
        if not path.is_file():
            raise SchemaMismatch(f"{manifest_path}: client file {path} not found")
    datasets = []
    for path, client_id, entry in clients:
        ds = load_client_csv(path, num_classes=num_classes, client_id=client_id)
        for key, found in (("n_k", ds.n_k), ("class_histogram", ds.class_histogram)):
            if key in entry and entry[key] != found:
                raise SchemaMismatch(f"{manifest_path}: client {client_id} lists {key} "
                                     f"{entry[key]!r}, but {path.name} holds {found!r}")
        width = ds.train.inputs.shape[1]
        if datasets and width != datasets[0].train.inputs.shape[1]:
            raise SchemaMismatch(f"{manifest_path}: client {client_id} has {width} features, "
                                 f"client {datasets[0].client_id} has "
                                 f"{datasets[0].train.inputs.shape[1]}")
        datasets.append(ds)
    return datasets
