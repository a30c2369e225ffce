"""The training loop, shared by every problem in the package.

:meth:`Trainer.train` is the one loop: Adam epochs (local, or sharded
over :mod:`repro.dist`), then the optional L-BFGS phase.  Resilience
(checkpoint cadence, resume, the divergence sentinel, signal and
preemption handling), data-parallel sharding, tape compilation,
telemetry and the per-epoch hook are wired here once.  What differs
between problems sits behind the small duck-typed :class:`TrainingTask`
protocol: the epoch's inputs, the define-by-run loss, an optional
compile-step function, shard slicing, an after-update hook, extra
checkpoint arrays, evaluation, and the result record.

:class:`Trainer` binds the paper's 2-D Maxwell problem
(:class:`MaxwellTask`); :class:`repro.pde.PDETrainer` and
:class:`repro.core.maxwell3d.Maxwell3DTrainer` bind theirs.

Tracks, per epoch: total loss and its components, global gradient norm and
variance (Fig. 10c–d), learning rate; optionally (sparsely) the L2 error
against a reference solution (Fig. 10a) and — for QPINNs — the
Meyer–Wallach entanglement of the circuit state on a probe batch
(Fig. 10e).  After training the Maxwell task computes the black-hole
indicator I_BH.
"""

from __future__ import annotations

import gc
import time
from contextlib import ExitStack, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import obs
from ..autodiff import Tensor, backward, no_grad
from ..autodiff.tape import compile_step
from ..dist.bucket import ParamBucket, shard_slice
from ..dist.shm import DistInterrupt
from ..optim import Adam, StepDecay
from ..resilience import (
    CheckpointManager,
    DivergenceSentinel,
    GracefulShutdown,
    SimulatedPreemption,
)
from ..solvers.maxwell_ref import ReferenceSolution
from ..torq.entanglement import meyer_wallach
from .blackhole import is_collapsed, model_bh_indicator
from .collocation import CollocationGrid
from .losses import MaxwellLoss
from .metrics import l2_relative_error

__all__ = [
    "LoopConfig", "TrainerConfig", "TrainingHistory", "TrainingResult",
    "TrainingTask", "MaxwellTask", "Trainer",
]


@dataclass
class LoopConfig:
    """Options of the training loop itself, shared by every binding."""

    epochs: int = 200
    lr: float = 1e-3
    #: evaluate (relative L2, entanglement) every N epochs and at the last
    #: epoch (0 disables).
    eval_every: int = 25
    #: capture the training step with :mod:`repro.autodiff.tape` on the
    #: first epoch and replay it thereafter, when the task offers a
    #: compile-step function; bitwise identical to define-by-run, with
    #: automatic fallback on unsupported ops.
    compile_step: bool = True
    #: tape-replay precision tier: ``"float64"`` (default, bitwise) or
    #: ``"float32"`` (kernels run in float32, outputs promoted back to
    #: float64, validated to :func:`repro.lower.budget.tape_budget`).
    #: Ignored when ``compile_step`` is off or the step falls back to
    #: define-by-run, which always runs float64.
    precision: str = "float64"
    #: per-step divergence sentinel (:class:`repro.resilience.SentinelConfig`);
    #: ``None`` keeps the hot loop entirely check-free.
    sentinel: "object | None" = None
    #: directory for periodic/best checkpoints (``None`` disables).
    checkpoint_dir: "str | Path | None" = None
    #: write a periodic checkpoint every N epochs (0 = only best/final).
    checkpoint_every: int = 0
    #: retention: number of periodic checkpoints kept on disk.
    checkpoint_keep: int = 3
    #: additionally refresh ``ckpt-best.npz`` whenever the loss improves.
    checkpoint_best: bool = True
    #: resume source: a checkpoint path, or ``"auto"`` for the newest
    #: valid archive in ``checkpoint_dir``.  Restores model, optimiser,
    #: scheduler, RNG state and the task's extra arrays (curriculum, the
    #: live collocation sample) bitwise, so the resumed run reproduces
    #: the uninterrupted one exactly.
    resume_from: "str | Path | None" = None
    #: trap SIGINT/SIGTERM while checkpointing is active: finish the
    #: current step, write a final checkpoint, and return cleanly.
    handle_signals: bool = True
    #: test-only fault injection (:class:`repro.resilience.ChaosInjector`).
    chaos: "object | None" = None
    #: data-parallel sharding (:class:`repro.dist.DistConfig`).  ``None``
    #: or ``workers=1`` is the unchanged single-process path;
    #: ``backend="serial"`` runs all shards in-process (the bitwise
    #: reference); ``backend="shm"`` must be launched through
    #: :func:`repro.dist.train_distributed`.
    dist: "object | None" = None
    #: per-epoch observer ``hook(epoch, loss, grad_norm, grad_variance)``
    #: called at the end of every epoch, after evaluation; a truthy
    #: return stops training cleanly after the epoch's checkpoint
    #: cadence (a returned string is recorded as the stop reason).  Used
    #: by :class:`repro.campaign.CampaignMonitor` for online
    #: black-hole/barren-plateau detection.  Dist runs reject a hook.
    epoch_hook: "object | None" = None


@dataclass
class TrainerConfig(LoopConfig):
    """Maxwell hyperparameters (defaults follow the paper where known)."""

    lr_step: int = 2000
    lr_gamma: float = 0.85
    track_entanglement: bool = True
    entanglement_probe: int = 64
    bh_n_space: int = 16
    bh_n_times: int = 10
    log_every: int = 0  # 0 silences console output
    #: extra quasi-Newton epochs after Adam (ref. [21]'s Adam→L-BFGS recipe)
    lbfgs_epochs: int = 0
    #: clip the global gradient norm (0 disables)
    clip_grad_norm: float = 0.0
    #: sample this many collocation points per epoch instead of the full
    #: grid (0 = full batch).  The paper deliberately avoids mini-batching,
    #: citing Hao et al. [34] that it degrades PINNs — this knob exists to
    #: test that claim (see benchmarks/test_minibatch_ablation.py).
    #: Mini-batched, curriculum and RBA runs train define-by-run.
    batch_points: int = 0


@dataclass
class TrainingHistory:
    """Per-epoch series; sparse series carry their epoch indices."""

    loss: list[float] = field(default_factory=list)
    components: dict[str, list[float]] = field(default_factory=dict)
    grad_norm: list[float] = field(default_factory=list)
    grad_variance: list[float] = field(default_factory=list)
    learning_rate: list[float] = field(default_factory=list)
    l2_epochs: list[int] = field(default_factory=list)
    l2_error: list[float] = field(default_factory=list)
    mw_epochs: list[int] = field(default_factory=list)
    mw_entropy: list[float] = field(default_factory=list)
    #: ‖θ_e − θ_0‖ / ‖θ_0‖ per epoch — the "laziness" diagnostic the paper
    #: contrasts the BH collapse against (ref. [25]): lazy training shows
    #: near-zero drift, BH shows genuine movement followed by collapse.
    param_drift: list[float] = field(default_factory=list)
    #: wall time over the Adam epochs and L-BFGS iterations that ran.
    seconds_per_epoch: float = 0.0
    #: set when training stopped early on a non-finite loss (no sentinel
    #: configured): the offending epoch and an actionable diagnostic.
    stop_epoch: int | None = None
    stop_reason: str | None = None
    #: set when ``config.epoch_hook`` requested a clean early stop (e.g.
    #: a campaign monitor early-stopping a doomed run).
    early_stop_epoch: int | None = None
    early_stop_reason: str | None = None


@dataclass
class TrainingResult:
    """Everything the experiment harnesses need from one run."""

    model: object
    history: TrainingHistory
    final_l2: float | None
    i_bh: float
    collapsed: bool
    converged: bool
    #: the run was stopped by SIGINT/SIGTERM or a simulated preemption
    #: after writing a final checkpoint; resume with ``resume_from=``.
    interrupted: bool = False


class TrainingTask:
    """The problem side of the training loop (a duck-typed protocol).

    ``inputs``, ``objective`` and ``result`` are required; every other
    member has a default here that suits a problem with no compiled form,
    no sharding, no weighting state, and no reference solution.
    """

    #: names the telemetry scope and the compiled step.
    name = "task"
    #: the generator a bitwise resume restores (sampling, mini-batches).
    rng: np.random.Generator | None = None

    def inputs(self, epoch: int):
        """This epoch's training inputs; resampling happens here."""
        raise NotImplementedError

    def objective(self, model, inputs, epoch: int):
        """Define-by-run loss: ``(total Tensor, {component: float})``."""
        raise NotImplementedError

    def step_fn(self, model, inputs):
        """``fn(*arrays) -> (total, {component: Tensor})`` for
        :func:`~repro.autodiff.tape.compile_step`, or ``None`` when the
        computation changes between epochs and must stay define-by-run.
        Everything that differs between calls must be one of the
        :meth:`step_arrays`; the rest is folded at trace time."""
        return None

    def step_arrays(self, inputs) -> tuple:
        """Positional arrays the compiled step is called with."""
        return ()

    def validate_dist(self, world: int) -> None:
        """Raise an actionable error when the task cannot be sharded."""
        raise ValueError(f"{self.name!r} training does not support dist")

    def shard(self, inputs, rank: int, world: int):
        """Rank ``rank``'s slice of the epoch's inputs."""
        raise NotImplementedError

    def after_update(self, loss_value: float) -> None:
        """Weighting state update after an applied optimiser step."""

    def checkpoint_arrays(self) -> dict:
        """Task state a bitwise resume needs beyond model/optimiser/RNG."""
        return {}

    def restore_arrays(self, arrays: dict) -> None:
        """Inverse of :meth:`checkpoint_arrays`."""

    def evaluate(self, model) -> float | None:
        """Relative L2 error against the reference (``None``: no reference)."""
        return None

    def entanglement(self, model) -> float | None:
        """Mean Meyer–Wallach entanglement of the circuit, if tracked."""
        return None

    def result(self, model, hist: TrainingHistory, interrupted: bool):
        """The binding's result record, built from the loop's history."""
        raise NotImplementedError


class MaxwellTask(TrainingTask):
    """The paper's 2-D Maxwell problem: a :class:`MaxwellLoss` on a grid."""

    name = "maxwell"

    def __init__(self, loss: MaxwellLoss, grid: CollocationGrid,
                 config: TrainerConfig,
                 reference: ReferenceSolution | None = None):
        if config.batch_points and loss.rba is not None:
            # RBA weights are indexed by fixed collocation ids; resampled
            # mini-batches would scramble the mapping.
            raise ValueError("batch_points cannot be combined with RBA weights")
        self.loss = loss
        self.grid = grid
        self.config = config
        self.reference = reference
        self.rng = np.random.default_rng(424242)  # mini-batch draws
        self._probe = self._make_probe()
        self._shards: dict[int, CollocationGrid] = {}

    def _make_probe(self):
        """Fixed random probe points for the entanglement diagnostic."""
        rng = np.random.default_rng(12345)
        k = self.config.entanglement_probe
        x = rng.uniform(-1, 1, (k, 1))
        y = rng.uniform(-1, 1, (k, 1))
        t = rng.uniform(0, self.grid.t_max, (k, 1))
        return Tensor(x), Tensor(y), Tensor(t)

    def inputs(self, epoch: int) -> CollocationGrid:
        n = self.config.batch_points
        if n and n < self.grid.n_points:
            indices = self.rng.choice(self.grid.n_points, size=n,
                                      replace=False)
            return self.grid.subsample(indices)
        return self.grid

    def objective(self, model, grid: CollocationGrid, epoch: int):
        return self.loss(model, grid, epoch)

    def step_fn(self, model, grid: CollocationGrid):
        # Stateful weighting (curriculum, RBA) and per-epoch mini-batching
        # change the computation between epochs: only the plain
        # fixed-grid step is captured.
        if (self.loss.curriculum is not None or self.loss.rba is not None
                or self.config.batch_points):
            return None
        loss_fn = self.loss

        def step_fn():
            return loss_fn.loss_tensors(model, grid)

        return step_fn

    def validate_dist(self, world: int) -> None:
        cfg = self.config
        if cfg.batch_points:
            raise ValueError(
                "dist training shards the full collocation grid; it "
                "cannot be combined with batch_points mini-batching"
            )
        if cfg.lbfgs_epochs:
            raise ValueError(
                "dist training does not support the L-BFGS fine-tuning "
                "phase (its line search is inherently full-batch serial); "
                "set lbfgs_epochs=0"
            )
        if self.loss.curriculum is not None or self.loss.rba is not None:
            raise ValueError(
                "dist training cannot shard stateful loss weighting "
                "(curriculum / RBA): their state depends on full-batch "
                "point identities; disable them for distributed runs"
            )
        shard_slice(self.grid.n_points, 0, world, "CollocationGrid.n_points")

    def shard(self, grid: CollocationGrid, rank: int, world: int):
        # The tape folds the grid at trace time, so each shard keeps one
        # grid object (and the loop one compiled step) per rank.
        shard = self._shards.get(rank)
        if shard is None:
            sl = shard_slice(self.grid.n_points, rank, world,
                             "CollocationGrid.n_points")
            shard = self.grid.subsample(np.arange(sl.start, sl.stop))
            self._shards[rank] = shard
        return shard

    def after_update(self, loss_value: float) -> None:
        if self.loss.curriculum is not None:
            self.loss.curriculum.update(loss_value)

    def checkpoint_arrays(self) -> dict:
        arrays = {}
        cur = self.loss.curriculum
        if cur is not None:
            arrays["curriculum/progress"] = np.array(cur._progress)
            arrays["curriculum/best_loss"] = np.array(cur._best_loss)
            arrays["curriculum/bin_losses"] = cur._bin_losses
        if self.loss.rba is not None:
            arrays["rba/values"] = self.loss.rba.values
        return arrays

    def restore_arrays(self, arrays: dict) -> None:
        cur = self.loss.curriculum
        if cur is not None and "curriculum/progress" in arrays:
            cur._progress = float(arrays["curriculum/progress"])
            cur._best_loss = float(arrays["curriculum/best_loss"])
            cur._bin_losses = arrays["curriculum/bin_losses"].copy()
        if self.loss.rba is not None and "rba/values" in arrays:
            self.loss.rba.values = arrays["rba/values"].copy()

    def evaluate(self, model) -> float | None:
        if self.reference is None:
            return None
        return l2_relative_error(model, self.reference)

    def entanglement(self, model) -> float | None:
        if not self.config.track_entanglement or not hasattr(
            model, "quantum_state"
        ):
            return None
        with no_grad():
            state = model.quantum_state(*self._probe)
        return float(meyer_wallach(state).mean())

    def result(self, model, hist: TrainingHistory,
               interrupted: bool) -> TrainingResult:
        cfg = self.config
        i_bh = model_bh_indicator(
            model,
            self.grid.t_max,
            eps_fn=self.grid.medium.permittivity,
            n_space=cfg.bh_n_space,
            n_times=cfg.bh_n_times,
        )
        collapsed = is_collapsed(i_bh)
        # The paper marks non-converged runs with an "X"; we treat collapse,
        # a non-finite loss, or a mid-run divergence stop as non-convergence.
        finite = bool(hist.loss and np.isfinite(hist.loss[-1]))
        return TrainingResult(
            model=model,
            history=hist,
            final_l2=hist.l2_error[-1] if hist.l2_error else None,
            i_bh=i_bh,
            collapsed=collapsed,
            converged=finite and not collapsed and hist.stop_reason is None,
            interrupted=interrupted,
        )


class Trainer:
    """The one training loop; built directly, it trains a Maxwell PINN/QPINN.

    The constructor binds one 2-D test case (:class:`MaxwellTask`);
    subclasses bind other problems by calling :meth:`_bind` instead.
    """

    def __init__(
        self,
        model,
        loss: MaxwellLoss,
        grid: CollocationGrid,
        config: TrainerConfig | None = None,
        reference: ReferenceSolution | None = None,
    ):
        config = config if config is not None else TrainerConfig()
        self.loss = loss
        self.grid = grid
        self.reference = reference
        self._bind(
            model, MaxwellTask(loss, grid, config, reference), config,
            lambda opt: StepDecay(opt, step_size=config.lr_step,
                                  gamma=config.lr_gamma),
        )

    def _bind(self, model, task: TrainingTask, config: LoopConfig,
              schedule=None) -> None:
        """Wire the loop to a model, a task, and a config; ``schedule``
        builds an optional lr scheduler from the optimiser."""
        self.model = model
        self.task = task
        self.config = config
        self.params = model.parameters()
        self.optimizer = Adam(self.params, lr=config.lr)
        self.scheduler = schedule(self.optimizer) if schedule else None
        self._theta0 = np.concatenate([p.data.ravel().copy() for p in self.params])
        self._theta0_norm = float(np.linalg.norm(self._theta0)) or 1.0
        self._compiled = None  # CompiledStep, or False when ineligible
        self._chaos = None  # config.chaos, read when train() starts
        self._sentinel = None
        if config.sentinel is not None:
            self._sentinel = DivergenceSentinel(
                config.sentinel, self.params, self.optimizer, self.scheduler,
            )
        self._ckpt = None
        self._start_epoch = 0
        self._dist_ctx = None
        self._dist_bucket = None
        self._dist_compiled = {}
        self._dist_comp_keys = None

    # ------------------------------------------------------------------
    def evaluate(self) -> float | None:
        """Relative L2 error of the current model (``None`` when the task
        has no reference solution)."""
        return self.task.evaluate(self.model)

    def _grad_stats(self) -> tuple[float, float]:
        flat = [p.grad.ravel() for p in self.params if p.grad is not None]
        if not flat:
            return 0.0, 0.0
        g = np.concatenate(flat)
        return float(np.linalg.norm(g)), float(g.var())

    def _param_drift(self) -> float:
        theta = np.concatenate([p.data.ravel() for p in self.params])
        return float(np.linalg.norm(theta - self._theta0)) / self._theta0_norm

    def _clip_gradients(self) -> None:
        limit = getattr(self.config, "clip_grad_norm", 0.0)
        if limit <= 0:
            return
        total = np.sqrt(sum(
            float((p.grad ** 2).sum()) for p in self.params if p.grad is not None
        ))
        if total > limit:
            scale = limit / total
            for p in self.params:
                if p.grad is not None:
                    p.grad *= scale

    # ------------------------------------------------------------------
    # Resilience wiring
    # ------------------------------------------------------------------
    def _checkpoint_arrays(self) -> dict:
        """Loop and task state a bitwise resume needs beyond the core."""
        return {"theta0": self._theta0, **self.task.checkpoint_arrays()}

    def _restore_arrays(self, arrays: dict) -> None:
        if "theta0" in arrays:
            self._theta0 = arrays["theta0"]
            self._theta0_norm = float(np.linalg.norm(self._theta0)) or 1.0
        self.task.restore_arrays(arrays)

    def save_checkpoint(self, path, epochs_done: int = 0) -> Path:
        """Write a full resumable checkpoint of this trainer's state."""
        from .checkpoint import save_checkpoint

        return save_checkpoint(
            path, self.model, self.optimizer, epoch=epochs_done,
            scheduler=self.scheduler, rng=self.task.rng,
            extra_arrays=self._checkpoint_arrays(),
        )

    def _setup_resilience(self) -> None:
        """Build the checkpoint manager and apply ``resume_from``."""
        cfg = self.config
        self._chaos = cfg.chaos
        self._ckpt = None
        self._start_epoch = 0
        if cfg.checkpoint_dir is not None:
            self._ckpt = CheckpointManager(
                cfg.checkpoint_dir, self.model, self.optimizer,
                scheduler=self.scheduler, rng=self.task.rng,
                every=cfg.checkpoint_every, keep=cfg.checkpoint_keep,
                track_best=cfg.checkpoint_best, chaos=self._chaos,
            )
        if not cfg.resume_from:
            return
        if self._ckpt is not None:
            pin = (None if str(cfg.resume_from) in ("auto", "latest")
                   else cfg.resume_from)
            info = self._ckpt.resume(pin)
        else:
            from .checkpoint import load_checkpoint

            info = load_checkpoint(
                cfg.resume_from, self.model, self.optimizer,
                scheduler=self.scheduler, rng=self.task.rng,
            )
        if info is None:
            return  # nothing on disk yet: a fresh run with checkpointing
        self._restore_arrays(info["arrays"])
        self._start_epoch = int(info["epoch"])
        # A restore swaps parameter/buffer arrays behind any compiled
        # step and any sentinel snapshot: both must drop cached state.
        for step in (self._compiled, *self._dist_compiled.values()):
            if step:
                step.invalidate()
        if self._sentinel is not None:
            self._sentinel.refresh()

    # ------------------------------------------------------------------
    def train(self):
        """Run the training loop and return the task's result record."""
        cfg = self.config
        hist = TrainingHistory()
        dist_ctx = self._resolve_dist()
        self._setup_resilience()
        ckpt = self._ckpt if dist_ctx is None or dist_ctx.writes_checkpoints else None
        start = time.perf_counter()
        recorder = obs.get_recorder()
        interrupted = False
        epochs_run = lbfgs_run = 0

        def interrupt(epochs_done: int) -> None:
            # Stopped at an epoch boundary: the state is consistent, so a
            # final checkpoint makes the run resumable exactly there.
            if ckpt is not None:
                ckpt.save(epochs_done, loss=hist.loss[-1],
                          arrays=self._checkpoint_arrays)
            if dist_ctx is not None:
                dist_ctx.announce_interrupt()

        with ExitStack() as stack:
            # Autodiff graphs are acyclic and freed by reference counting;
            # the cyclic collector only adds multi-second pauses scanning
            # the live graph, so it is paused for the duration of the loop.
            if gc.isenabled():
                gc.disable()
                stack.callback(gc.enable)
            # Observability is opt-in: outside obs.observe()/obs.profile()
            # the epoch loop takes the plain path and does no obs work.
            if recorder is not None:
                stack.enter_context(obs.scope("train", problem=self.task.name))
            shutdown = None
            if self._ckpt is not None and cfg.handle_signals:
                shutdown = stack.enter_context(GracefulShutdown())
            try:
                for epoch in range(self._start_epoch, cfg.epochs):
                    stop = self._epoch(epoch, hist, recorder)
                    epochs_run += 1
                    if ckpt is not None:
                        ckpt.step(epoch + 1, hist.loss[-1],
                                  arrays=self._checkpoint_arrays)
                    if shutdown is not None and shutdown.requested:
                        interrupted = True
                        interrupt(epoch + 1)
                        break
                    if stop:
                        break
            except SimulatedPreemption:
                # The chaos injector preempts at a step boundary.
                interrupted = True
                epochs_run += 1
                interrupt(epoch + 1)
            except DistInterrupt:
                # A peer rank shut down cleanly while this rank was
                # already mid-epoch: its RNG/schedule advanced past the
                # last consistent boundary, so it must NOT checkpoint —
                # resume rewinds to rank 0's newest boundary archive.
                interrupted = True
            lbfgs = getattr(cfg, "lbfgs_epochs", 0)
            if lbfgs > 0 and not interrupted and (
                hist.stop_reason is None and hist.early_stop_epoch is None
            ):
                self._finetune_lbfgs(hist)
                lbfgs_run = lbfgs
        elapsed = time.perf_counter() - start
        hist.seconds_per_epoch = elapsed / max(1, epochs_run + lbfgs_run)
        return self.task.result(self.model, hist, interrupted)

    def _finetune_lbfgs(self, hist: TrainingHistory) -> None:
        """Quasi-Newton fine-tuning phase after the Adam epochs."""
        from ..optim import LBFGS

        cfg = self.config
        optimizer = LBFGS(self.params)
        epoch_offset = cfg.epochs
        grid = self.task.grid

        def closure() -> float:
            optimizer.zero_grad()
            total, _ = self.task.objective(self.model, grid, epoch_offset)
            backward(total, self.params)
            return float(total.data)

        for k in range(cfg.lbfgs_epochs):
            loss_value = optimizer.step(closure)
            hist.loss.append(loss_value)
            norm, var = self._grad_stats()
            hist.grad_norm.append(norm)
            hist.grad_variance.append(var)
            hist.learning_rate.append(0.0)  # line-search controlled
            if cfg.eval_every and k == cfg.lbfgs_epochs - 1:
                l2 = self.evaluate()
                if l2 is not None:
                    hist.l2_epochs.append(epoch_offset + k)
                    hist.l2_error.append(l2)

    # ------------------------------------------------------------------
    # Data-parallel sharding (repro.dist)
    # ------------------------------------------------------------------
    def _dist_validate(self, world: int) -> None:
        if self.config.epoch_hook is not None:
            raise ValueError(
                "epoch_hook is not supported on dist runs: each rank only "
                "sees its shard, so no rank can observe the whole epoch; "
                "drop epoch_hook or train with dist=None (workers=1)"
            )
        self.task.validate_dist(world)

    def attach_dist(self, ctx) -> None:
        """Attach a distribution context (worker entrypoint / serial)."""
        self._dist_validate(ctx.world)
        self._dist_ctx = ctx

    def _resolve_dist(self):
        if self._dist_ctx is not None:
            return self._dist_ctx
        dist = self.config.dist
        if dist is None or int(dist.workers) <= 1:
            return None
        if dist.backend == "serial":
            from ..dist import SerialDistContext

            self.attach_dist(SerialDistContext(dist.workers))
            return self._dist_ctx
        if dist.backend == "shm":
            raise RuntimeError(
                "backend='shm' needs worker processes and shared memory: "
                "launch through repro.dist.train_distributed(factory, "
                "dist); call trainer.train() directly only with "
                "backend='serial' or workers=1"
            )
        raise ValueError(f"unknown dist backend {dist.backend!r}")

    # ------------------------------------------------------------------
    # One epoch
    # ------------------------------------------------------------------
    def _step(self, inputs, rank):
        """The tape-compiled step for ``rank`` (``None``: unsharded), or
        ``None`` when the task trains define-by-run."""
        step = self._compiled if rank is None else self._dist_compiled.get(rank)
        if step is None:
            fn = (self.task.step_fn(self.model, inputs)
                  if self.config.compile_step else None)
            name = self.task.name if rank is None else f"{self.task.name}-r{rank}"
            step = False if fn is None else compile_step(
                fn, self.params, name=name, precision=self.config.precision,
            )
            if rank is None:
                self._compiled = step
            else:
                self._dist_compiled[rank] = step
        return step or None

    def _gradients(self, inputs, epoch: int, recorder, rank=None):
        """Loss, components and gradients of one (shard of an) epoch.

        Returns ``(loss, comps, grads)``; ``grads`` is the compiled step's
        executor-owned arrays, or ``None`` when they are in ``p.grad``.
        Under an active recorder the step runs define-by-run so per-op
        profiling and backward attribution see every operation.
        """
        self.optimizer.zero_grad()
        step = self._step(inputs, rank) if recorder is None else None
        if step is not None:
            loss_value, grads, aux = step(*self.task.step_arrays(inputs))
            return loss_value, {k: float(v) for k, v in aux.items()}, grads
        scope = nullcontext if recorder is None else obs.scope
        with scope("forward"):
            total, comps = self.task.objective(self.model, inputs, epoch)
        with scope("backward"):
            backward(total, self.params)
        return float(total.data), comps, None

    def _shard_gradients(self, inputs, epoch: int, recorder, ctx) -> None:
        """Compute this process's shards, ship them, and gather."""
        if self._dist_bucket is None:
            self._dist_bucket = ParamBucket(self.params)
        for rank in ctx.local_ranks:
            shard = self.task.shard(inputs, rank, ctx.world)
            loss_value, comps, grads = self._gradients(shard, epoch,
                                                       recorder, rank)
            ctx.put_shard(rank, self._dist_bucket, loss_value, grads=grads,
                          aux_vals=list(comps.values()))
        self._dist_comp_keys = list(comps)
        if self._chaos is not None:
            ctx.shard_chaos(self._chaos, epoch)
        ctx.gather(epoch)

    def _guard(self, epoch: int, loss_value: float, norm: float,
               hist: TrainingHistory) -> bool:
        """Sentinel / finiteness guard; says whether to apply the update."""
        if self._sentinel is not None:
            return self._sentinel.observe(epoch, loss_value)
        if np.isfinite(loss_value):
            return True
        # No sentinel: stop immediately instead of silently training on
        # garbage for the remaining epochs.
        hist.stop_epoch = epoch
        hist.stop_reason = (
            f"loss went non-finite ({loss_value!r}) at epoch {epoch} "
            f"(grad_norm={norm!r}); configure "
            f"{type(self.config).__name__}.sentinel for skip/rollback "
            f"recovery, or lower the learning rate"
        )
        return False

    def _epoch(self, epoch: int, hist: TrainingHistory, recorder) -> bool:
        """One epoch, local or sharded; returns whether to stop training.

        Sharded epochs are bitwise identical across dist backends: rank 0
        reduces and updates exactly like a local step, then publishes.
        """
        cfg, task, ctx = self.config, self.task, self._dist_ctx
        inputs = task.inputs(epoch)
        if ctx is None:
            loss_value, comps, grads = self._gradients(inputs, epoch, recorder)
            if grads is not None:
                # Replay buffers are executor-owned: copy before Adam mutates.
                for p, g in zip(self.params, grads):
                    p.grad = g.copy()
        else:
            self._shard_gradients(inputs, epoch, recorder, ctx)
            n_aux = len(self._dist_comp_keys)
        if ctx is None or ctx.is_root:
            if ctx is not None:
                loss_value, aux = ctx.reduce(self._dist_bucket, n_aux)
            if self._chaos is not None:
                self._chaos.grads(epoch, self.params)
            self._clip_gradients()
            norm, var = self._grad_stats()
            if self._guard(epoch, loss_value, norm, hist):
                self.optimizer.step()
                task.after_update(loss_value)
            if self.scheduler is not None:
                self.scheduler.step()
            if self._chaos is not None:
                self._chaos.params(epoch, self.params)
            if ctx is not None:
                ctx.publish(self._dist_bucket, loss_value, aux, epoch,
                            stop=hist.stop_reason is not None)
        else:
            loss_value, aux, stopped = ctx.read_update(
                self._dist_bucket, epoch, n_aux
            )
            if self.scheduler is not None:
                self.scheduler.step()
            norm, var = self._grad_stats()  # rank-local shard gradients
            if stopped and hist.stop_reason is None:
                hist.stop_epoch = epoch
                hist.stop_reason = (
                    f"rank 0 stopped training at epoch {epoch} "
                    f"(non-finite loss; see the rank-0 result for details)"
                )
        if ctx is not None:
            comps = dict(zip(self._dist_comp_keys, (float(v) for v in aux)))

        hist.param_drift.append(self._param_drift())
        hist.loss.append(loss_value)
        for key, value in comps.items():
            hist.components.setdefault(key, []).append(value)
        hist.grad_norm.append(norm)
        hist.grad_variance.append(var)
        hist.learning_rate.append(float(self.optimizer.lr))

        last = epoch == cfg.epochs - 1
        if cfg.eval_every and (epoch % cfg.eval_every == 0 or last):
            with nullcontext() if recorder is None else obs.scope("evaluate"):
                l2 = self.evaluate()
                mw = task.entanglement(self.model)
            if l2 is not None:
                hist.l2_epochs.append(epoch)
                hist.l2_error.append(l2)
            if mw is not None:
                hist.mw_epochs.append(epoch)
                hist.mw_entropy.append(mw)
        if recorder is not None:
            recorder.emit(
                "epoch",
                epoch=epoch,
                loss=loss_value,
                components=comps,
                grad_norm=norm,
                grad_variance=var,
                param_drift=hist.param_drift[-1],
                learning_rate=hist.learning_rate[-1],
                l2_error=hist.l2_error[-1] if (
                    hist.l2_epochs and hist.l2_epochs[-1] == epoch
                ) else None,
            )
        log_every = getattr(cfg, "log_every", 0)
        if log_every and epoch % log_every == 0:  # pragma: no cover
            print(f"epoch {epoch:5d}  loss {hist.loss[-1]:.4e}")
        early = False
        if cfg.epoch_hook is not None:
            verdict = cfg.epoch_hook(epoch, loss_value, norm, var)
            if verdict:
                hist.early_stop_epoch = epoch
                hist.early_stop_reason = (
                    verdict if isinstance(verdict, str) else "epoch_hook"
                )
                early = True
        if self._chaos is not None:
            self._chaos.end_step(epoch)
        return hist.stop_reason is not None or early
