"""Trainer for the generic PDE problems.

Binds the Schrödinger/Burgers/Poisson extensions to the shared training
loop of :class:`repro.core.trainer.Trainer`: random collocation
resampling, Adam, residual + data losses, and relative-L2 tracking.
Resilience, dist sharding, tape compilation, telemetry and the epoch
hook are the loop's; this module only supplies the problem
(:class:`PDETask`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.trainer import LoopConfig, Trainer, TrainingHistory, TrainingTask
from ..dist.bucket import shard_slice

__all__ = ["PDETrainerConfig", "PDETrainingResult", "PDETrainer", "PDETask"]


@dataclass
class PDETrainerConfig(LoopConfig):
    """Generic-PDE sampling and loss options on top of :class:`LoopConfig`."""

    lr: float = 2e-3
    eval_every: int = 50
    n_collocation: int = 256
    n_data: int = 64
    data_weight: float = 10.0
    resample_every: int = 10
    seed: int = 0
    #: Gradient backend for a model's quantum layer ("backprop", "adjoint",
    #: or "parameter_shift").  Backprop is required when the problem's
    #: residual loss differentiates the network output with respect to its
    #: inputs (create_graph) *through the quantum layer*; the analytic
    #: backends suit data-loss-only training and fully classical residuals.
    quantum_grad_method: str = "backprop"


@dataclass
class PDETrainingResult(TrainingHistory):
    """The loop's per-epoch history plus the trained model."""

    model: object = None
    #: the run was stopped by SIGINT/SIGTERM or a simulated preemption
    #: after writing a final checkpoint; resume with ``resume_from=``.
    interrupted: bool = False

    @property
    def final_l2(self) -> float | None:
        """Last recorded relative L2 error (None if never evaluated)."""
        return self.l2_error[-1] if self.l2_error else None


class PDETask(TrainingTask):
    """One :mod:`repro.pde.problems` task as a training-loop task.

    The epoch's inputs are ``(points, data)``: the collocation sample
    (redrawn every ``resample_every`` epochs) and the data arrays drawn
    every epoch, or ``None`` for a problem that only offers
    ``data_loss(model, n, rng)`` — such a problem trains define-by-run
    and cannot be sharded.
    """

    def __init__(self, problem, config: PDETrainerConfig,
                 rng: np.random.Generator):
        self.problem = problem
        self.config = config
        self.rng = rng
        self.name = getattr(problem, "name", "pde")
        self.points = None
        self.reference = None
        self._arrays = (hasattr(problem, "data_arrays")
                        and hasattr(problem, "data_terms"))
        self._res_terms = getattr(problem, "residual_terms",
                                  problem.residual_loss)

    def _res_arrays(self, points) -> tuple:
        expand = getattr(self.problem, "residual_arrays", None)
        return points if expand is None else expand(*points)

    def inputs(self, epoch: int):
        cfg = self.config
        if self.points is None or epoch % cfg.resample_every == 0:
            self.points = self.problem.sample(cfg.n_collocation, self.rng)
        data = (self.problem.data_arrays(cfg.n_data, self.rng)
                if self._arrays else None)
        return self.points, data

    def objective(self, model, inputs, epoch: int):
        points, data = inputs
        residual = self._res_terms(model, *self._res_arrays(points))
        if data is None:
            data = self.problem.data_loss(model, self.config.n_data, self.rng)
        else:
            data = self.problem.data_terms(model, *data)
        total = residual + self.config.data_weight * data
        return total, {"residual": float(residual.data),
                       "data": float(data.data)}

    def step_fn(self, model, inputs):
        if not self._arrays:
            return None
        split = len(self._res_arrays(inputs[0]))
        problem, res_terms = self.problem, self._res_terms
        weight = self.config.data_weight

        def step_fn(*arrays):
            residual = res_terms(model, *arrays[:split])
            data = problem.data_terms(model, *arrays[split:])
            return residual + weight * data, {"residual": residual,
                                              "data": data}

        return step_fn

    def step_arrays(self, inputs) -> tuple:
        points, data = inputs
        return (*self._res_arrays(points), *data)

    def validate_dist(self, world: int) -> None:
        if not self._arrays:
            raise ValueError(
                f"distributed training shards explicit data arrays, but "
                f"problem {self.name!r} provides no data_arrays/data_terms"
            )
        shard_slice(self.config.n_collocation, 0, world, "n_collocation")
        shard_slice(self.config.n_data, 0, world, "n_data")

    def shard(self, inputs, rank: int, world: int):
        # Lockstep sampling: every rank draws the *full* batch with its
        # own (identically seeded) generator and trains only its slice,
        # so the RNG streams stay bit-identical across ranks and epochs.
        points, data = inputs
        csl = shard_slice(self.config.n_collocation, rank, world,
                          "n_collocation")
        dsl = shard_slice(self.config.n_data, rank, world, "n_data")
        return tuple(a[csl] for a in points), tuple(a[dsl] for a in data)

    def checkpoint_arrays(self) -> dict:
        """The live collocation sample (resampled only every N epochs)."""
        if self.points is None:
            return {}
        return {f"points/{i}": a for i, a in enumerate(self.points)}

    def restore_arrays(self, arrays: dict) -> None:
        keys = sorted(
            (k for k in arrays if k.startswith("points/")),
            key=lambda k: int(k.rsplit("/", 1)[1]),
        )
        if keys:
            self.points = tuple(arrays[k] for k in keys)

    def evaluate(self, model) -> float:
        if not hasattr(self.problem, "reference"):
            return self.problem.l2_error(model)
        if self.reference is None:
            self.reference = self.problem.reference()
        return self.problem.l2_error(model, self.reference)

    def result(self, model, hist: TrainingHistory,
               interrupted: bool) -> PDETrainingResult:
        return PDETrainingResult(model=model, interrupted=interrupted,
                                 **vars(hist))


class PDETrainer(Trainer):
    """Train a :class:`GenericPINN` on one :mod:`repro.pde.problems` task."""

    def __init__(self, model, problem, config: PDETrainerConfig | None = None):
        config = config if config is not None else PDETrainerConfig()
        quantum = getattr(model, "quantum", None)
        if quantum is not None and hasattr(quantum, "grad_method"):
            from ..torq.layer import GRAD_METHODS

            method = config.quantum_grad_method
            if method not in GRAD_METHODS:
                raise ValueError(
                    f"unknown quantum_grad_method {method!r}; "
                    f"available: {GRAD_METHODS}"
                )
            quantum.grad_method = method
        self.problem = problem
        self.rng = np.random.default_rng(config.seed)
        self._bind(model, PDETask(problem, config, self.rng), config)
