"""Synthetic heterogeneous multi-client datasets and a per-client CSV loader.

Two heterogeneity regimes:

* label skew   — clients share class-conditional feature distributions but
                 draw class proportions from a symmetric Dirichlet;
* feature shift — clients share the labeling rule but see client-specific
                 affine-transformed inputs.

Per-client data is split 70/15/15 (train = floor(0.7 n), val = floor(0.15 n),
test = remainder), so a client needs at least 7 examples for a non-empty
validation split.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    InfeasibleSizes,
    MalformedRow,
    SchemaMismatch,
    check_int,
    check_real,
)
from .nn import Batch

# default size imbalance for K=5, shaped like a realistic multi-site cohort
DEFAULT_SIZES_K5 = [400, 350, 282, 238, 226]
MIN_CLIENT_SIZE = 7  # the smallest n with floor(0.15 n) >= 1


@dataclass
class PartitionSpec:
    kind: str  # label_skew | feature_shift | iid
    num_clients: int
    num_classes: int
    input_dim: int
    sizes: list[int]
    skew_concentration: float = 0.5
    shift_scale: float = 1.0
    class_separation: float = 2.0
    seed: int = 0

    def __post_init__(self):
        for name in ("num_clients", "num_classes", "input_dim", "seed"):
            check_int(getattr(self, name), f"data.{name}")
        if not isinstance(self.sizes, (list, tuple)):
            raise ConfigError("data.sizes", "must be a list of integers")
        for s in self.sizes:
            check_int(s, "data.sizes")
        for name in ("skew_concentration", "shift_scale", "class_separation"):
            check_real(getattr(self, name), f"data.{name}")
        if self.kind not in ("label_skew", "feature_shift", "iid"):
            raise ConfigError("data.kind", f"unknown kind {self.kind!r}")
        if self.num_clients < 1:
            raise ConfigError("data.num_clients", "need at least one client")
        if len(self.sizes) != self.num_clients:
            raise ConfigError("data.sizes", "one size per client required")
        if any(s < MIN_CLIENT_SIZE for s in self.sizes):
            raise ConfigError("data.sizes", f"every client needs >= {MIN_CLIENT_SIZE} examples")
        if self.kind == "label_skew" and self.skew_concentration <= 0:
            raise ConfigError("data.skew_concentration", "must be > 0")
        if self.shift_scale < 0:
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


def _class_means(spec: PartitionSpec) -> np.ndarray:
    """Shared class-conditional Gaussian means on a scaled simplex."""
    if spec.num_classes > spec.input_dim:
        raise ConfigError("data.num_classes", "needs num_classes <= input_dim")
    means = np.zeros((spec.num_classes, spec.input_dim))
    for c in range(spec.num_classes):
        means[c, c] = spec.class_separation
    return means


def generate_label_skew(spec: PartitionSpec) -> list[ClientDataset]:
    """Pure label shift: shared per-class Gaussians, Dirichlet class mixes."""
    if spec.kind != "label_skew":
        raise ConfigError("data.kind", "generate_label_skew needs kind=label_skew")
    means = _class_means(spec)
    clients = []
    for cid in range(spec.num_clients):
        n = spec.sizes[cid]
        crng = np.random.default_rng([spec.seed, 1, cid])
        props = crng.dirichlet(np.full(spec.num_classes, spec.skew_concentration))
        counts = _largest_remainder(props, n)
        labels = np.repeat(np.arange(spec.num_classes), counts)
        inputs = crng.standard_normal((n, spec.input_dim)) + means[labels]
        order = crng.permutation(n)
        clients.append(_split(inputs[order], labels[order], cid, spec.num_classes))
    return clients


def _largest_remainder(props: np.ndarray, n: int) -> np.ndarray:
    counts = np.floor(props * n).astype(int)
    short = n - counts.sum()
    remainders = props * n - counts
    for idx in np.argsort(-remainders)[:short]:
        counts[idx] += 1
    if counts.sum() != n:
        raise InfeasibleSizes(f"cannot place {n} examples")  # pragma: no cover
    return counts


def generate_feature_shift(spec: PartitionSpec) -> list[ClientDataset]:
    """One global label rule; per-client random affine input transforms."""
    if spec.kind != "feature_shift":
        raise ConfigError("data.kind", "generate_feature_shift needs kind=feature_shift")
    rng = np.random.default_rng([spec.seed, 0])
    w_true = rng.standard_normal((spec.input_dim, spec.num_classes))
    s = spec.shift_scale
    clients = []
    for cid in range(spec.num_clients):
        n = spec.sizes[cid]
        crng = np.random.default_rng([spec.seed, 1, cid])
        base = crng.standard_normal((n, spec.input_dim))
        labels = np.argmax(base @ w_true, axis=1)
        scale = crng.uniform(1.0 - s, 1.0 + s, spec.input_dim)
        shift = crng.uniform(-s, s, spec.input_dim)
        inputs = base * scale + shift
        order = crng.permutation(n)
        clients.append(_split(inputs[order], labels[order], cid, spec.num_classes))
    return clients


def generate(spec: PartitionSpec) -> list[ClientDataset]:
    if spec.kind == "label_skew":
        return generate_label_skew(spec)
    if spec.kind == "feature_shift":
        return generate_feature_shift(spec)
    # iid: the feature-shift generator with the identity transform
    return generate_feature_shift(replace(spec, kind="feature_shift", shift_scale=0.0))


# ---------------------------------------------------------------------------
# CSV round-trip

def save_client_csv(dataset: ClientDataset, path) -> None:
    """Write all splits as one CSV (header feature_0..feature_{d-1},label)."""
    d = dataset.train.inputs.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"feature_{i}" for i in range(d)] + ["label"])
        for batch in (dataset.train, dataset.val, dataset.test):
            for row, label in zip(batch.inputs, batch.labels):
                writer.writerow([repr(float(v)) for v in row] + [int(label)])


def load_client_csv(path, num_classes: int, client_id: int = 0) -> ClientDataset:
    """Parse a per-client CSV and split it 70/15/15 in file order, so a
    save/load round-trip reproduces the original splits."""
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
                raise MalformedRow(lineno, f"expected {d + 1} cells, got {len(row)}")
            try:
                inputs.append([float(v) for v in row[:-1]])
            except ValueError:
                raise MalformedRow(lineno, f"non-numeric feature cell in {row!r}")
            try:
                label = float(row[-1])
            except ValueError:
                raise MalformedRow(lineno, f"non-numeric label {row[-1]!r}")
            if label != int(label):
                raise MalformedRow(lineno, f"label {row[-1]!r} is not integral")
            labels.append(int(label))
    inputs = np.asarray(inputs, dtype=np.float64)
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
    manifest = {"spec": asdict(spec), "clients": entries}
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2))
    return manifest_path


def load_partition(manifest_path) -> list[ClientDataset]:
    """The clients a manifest lists; SchemaMismatch naming the manifest if it
    is unreadable, lacks a positive integer ``spec.num_classes`` or
    ``clients``, lists no client, or names a client file that does not exist."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text())
        num_classes = manifest["spec"]["num_classes"]
        clients = [(manifest_path.parent / entry["path"], entry["client_id"])
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
    for path, _ in clients:
        if not path.is_file():
            raise SchemaMismatch(f"{manifest_path}: client file {path} not found")
    return [load_client_csv(path, num_classes=num_classes, client_id=client_id)
            for path, client_id in clients]
