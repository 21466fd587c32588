"""Canonical desk-scale synthetic benchmarks used across tests and docs."""

from __future__ import annotations

from .data_synth import DEFAULT_SIZES_K5, PartitionSpec
from .nn import LayerSpec, ModelSpec
from .orchestrator import ExperimentConfig
from .strategies import KNOBS, StrategyConfig


def default_sizes(num_clients: int) -> list[int]:
    """``DEFAULT_SIZES_K5`` tiled to ``num_clients`` clients (its first ones for K <= 5)."""
    return [DEFAULT_SIZES_K5[k % len(DEFAULT_SIZES_K5)] for k in range(num_clients)]


def feature_shift_spec(seed: int = 0, num_clients: int = 5) -> PartitionSpec:
    return PartitionSpec(
        kind="feature_shift",
        num_clients=num_clients,
        num_classes=3,
        input_dim=8,
        sizes=default_sizes(num_clients),
        shift_scale=2.0,
        seed=seed,
    )


def label_skew_spec(seed: int = 0, num_clients: int = 5) -> PartitionSpec:
    return PartitionSpec(
        kind="label_skew",
        num_clients=num_clients,
        num_classes=3,
        input_dim=8,
        sizes=default_sizes(num_clients),
        skew_concentration=0.3,
        class_separation=1.0,
        seed=seed,
    )


def small_model(norm_kind: str = "batch_norm", input_dim: int = 8,
                num_classes: int = 3, hidden: int = 16) -> ModelSpec:
    layers = [LayerSpec(kind="dense", width=hidden)]
    if norm_kind:
        layers.append(LayerSpec(kind=norm_kind, groups=4 if norm_kind == "group_norm" else None))
    layers += [LayerSpec(kind="relu"), LayerSpec(kind="dense", width=num_classes)]
    return ModelSpec(input_dim=input_dim, layers=layers, loss="cross_entropy",
                     num_classes=num_classes)


def benchmark_config(
    algorithm: str,
    data_kind: str = "feature_shift",
    rounds: int = 50,
    local_epochs: int = 1,
    mu: float = 0.1,
    eta: float = 0.03,
    seeds=(0, 1, 2),
    norm_kind: str = "batch_norm",
    data_seed: int = 0,
) -> ExperimentConfig:
    spec = feature_shift_spec(data_seed) if data_kind == "feature_shift" else label_skew_spec(data_seed)
    knobs = {"mu": mu, "alpha": 0.01, "eta_g": 0.01, "gamma": 0.001}  # an algorithm is passed the ones it reads
    return ExperimentConfig(
        model=small_model(norm_kind),
        strategy=StrategyConfig(algorithm, **{k: knobs[k] for k in KNOBS.get(algorithm, ())}),
        data=spec,
        local_epochs=local_epochs,
        rounds=rounds,
        eta=eta,
        batch_size=32,
        seeds=list(seeds),
        selection_metric="auroc",
    )
