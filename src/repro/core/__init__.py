"""The paper's primary contribution: problem-size-sensitive task
partitioning via machine learning over static + runtime features."""

from .database import TrainingDatabase, TrainingRecord
from .evaluation import MachineEvaluation, ProgramResult, SizeResult, evaluate_lopo
from .features import (
    FEATURE_SCHEMA_VERSION,
    combined_features,
    feature_vector,
    runtime_feature_dict,
    static_feature_dict,
)
from .pipeline import TrainedSystem, train_system
from .predictor import (
    MODEL_KINDS,
    PERSISTABLE_MODEL_KINDS,
    load_model,
    save_model,
    PartitioningModel,
    PartitioningPredictor,
    PartitioningScorerModel,
    make_classifier,
    make_partitioning_model,
)
from .trainer import (
    TrainingConfig,
    build_record,
    generate_training_data,
    sweep_partitionings,
)

__all__ = [
    "TrainingDatabase",
    "TrainingRecord",
    "MachineEvaluation",
    "ProgramResult",
    "SizeResult",
    "evaluate_lopo",
    "FEATURE_SCHEMA_VERSION",
    "combined_features",
    "feature_vector",
    "runtime_feature_dict",
    "static_feature_dict",
    "TrainedSystem",
    "train_system",
    "MODEL_KINDS",
    "PERSISTABLE_MODEL_KINDS",
    "PartitioningModel",
    "PartitioningScorerModel",
    "PartitioningPredictor",
    "make_classifier",
    "make_partitioning_model",
    "save_model",
    "load_model",
    "TrainingConfig",
    "build_record",
    "generate_training_data",
    "sweep_partitionings",
]
