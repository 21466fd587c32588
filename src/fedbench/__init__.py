"""fedbench: federated-learning simulation benchmark on a minimal dense-net core."""

from .data_synth import ClientDataset, PartitionSpec
from .nn import Batch, LayerSpec, ModelSpec, init_params
from .orchestrator import ExperimentConfig, ExperimentResult, RoundRecord, run_experiment
from .strategies import ALGORITHMS, StrategyConfig

__all__ = [
    "ALGORITHMS",
    "Batch",
    "ClientDataset",
    "ExperimentConfig",
    "ExperimentResult",
    "LayerSpec",
    "ModelSpec",
    "PartitionSpec",
    "RoundRecord",
    "StrategyConfig",
    "init_params",
    "run_experiment",
]

__version__ = "0.1.0"
