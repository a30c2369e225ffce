"""``repro.core`` — the paper's contribution: QPINNs for 2-D Maxwell."""

from .checkpoint import load_checkpoint, save_checkpoint
from .blackhole import (
    BHReport,
    classify_bh_phenomenon,
    is_collapsed,
    model_bh_indicator,
    model_energy_series,
)
from .collocation import CollocationGrid
from .config import (
    CASES,
    CaseConfig,
    RunConfig,
    default_epochs,
    default_grid_n,
    default_seeds,
    env_int,
    get_case,
    make_reference,
    run_single,
)
from .controls import MaxwellTrigControl, TrigControlLayer
from .costmodel import DerivativeRequirement, LossCostModel, MAXWELL_COST_MODEL
from .initialization import OutputSpread, output_spread, penultimate_outputs
from .inverse import InverseResult, PermittivityEstimator
from .maxwell3d import Maxwell3DLoss, Maxwell3DPINN, Maxwell3DResult, Maxwell3DTrainer
from .losses import (
    FieldBundle,
    MaxwellLoss,
    PHYS_VARIANTS,
    forward_with_derivatives,
    masked_mse,
    weighted_mse,
)
from .metrics import evaluate_fields, l2_relative_error, l2_relative_error_fields
from .spectrum import dominant_harmonics, field_spectrum, pqc_output_spectrum
from .models import CLASSICAL_DEPTHS, MaxwellPINN, MaxwellQPINN, build_model
from .trainer import (
    LoopConfig,
    Trainer,
    TrainerConfig,
    TrainingHistory,
    TrainingResult,
    TrainingTask,
)
from .weighting import ResidualAttentionWeights, TemporalCurriculum

__all__ = [
    "CollocationGrid", "TemporalCurriculum", "ResidualAttentionWeights",
    "MaxwellPINN", "MaxwellQPINN", "build_model", "CLASSICAL_DEPTHS",
    "MaxwellLoss", "PHYS_VARIANTS", "FieldBundle", "forward_with_derivatives",
    "weighted_mse", "masked_mse",
    "evaluate_fields", "l2_relative_error", "l2_relative_error_fields",
    "Trainer", "TrainerConfig", "TrainingHistory", "TrainingResult",
    "LoopConfig", "TrainingTask",
    "model_bh_indicator", "model_energy_series", "is_collapsed",
    "classify_bh_phenomenon", "BHReport",
    "OutputSpread", "output_spread", "penultimate_outputs",
    "CaseConfig", "RunConfig", "CASES", "get_case", "make_reference",
    "run_single", "env_int", "default_grid_n", "default_epochs", "default_seeds",
    "TrigControlLayer", "MaxwellTrigControl",
    "PermittivityEstimator", "InverseResult",
    "LossCostModel", "DerivativeRequirement", "MAXWELL_COST_MODEL",
    "Maxwell3DPINN", "Maxwell3DLoss", "Maxwell3DTrainer", "Maxwell3DResult",
    "field_spectrum", "pqc_output_spectrum", "dominant_harmonics",
    "save_checkpoint", "load_checkpoint",
]
