"""The three workloads: what runs, what is timed, what is checked.

* ``qpinn-paper-g8`` -- :func:`repro.core.run_single` on ``vacuum`` with
  the paper defaults (strongly_entangling, acos, energy term, temporal
  curriculum) at 8^3 collocation points.
* ``pinn-campaign-g8`` -- the Table-1 ``regular`` classical PINN trained
  the way the campaign ``maxwell`` runner trains a cell: no curriculum,
  ``compile_step`` on, ``checkpoint_every=2``, ``resume_from="auto"``
  into a fresh directory.
* ``qpinn-serve`` -- the paper ``MaxwellQPINN`` frozen, loaded, warmed,
  then driven by one closed-loop client through ``FrozenModel.predict``.

Every workload reports every metric.  The unit of work is an *epoch* for
training and a *pass* over the seed's request schedule for serving; a
layer that does no work on a workload reports 0.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from tracing import Recorder, aggregate_units, span

#: the model init seed is ``seed % INIT_SEEDS``; expected.json records
#: the l2_final of each.
INIT_SEEDS = 4

END_TO_END = {
    "epoch_s": "s",
    "l2_final": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "predict_rows_per_s": "rows/s",
    "latency_ms.p50": "ms",
    "latency_ms.p95": "ms",
}

PER_LAYER = {
    "nn.features.self_s": "s",
    "nn.linear.self_s": "s",
    "nn.model.self_s": "s",
    "torq.layer.self_s": "s",
    "torq.layer.rows": "rows",
    "torq.entanglement.incl_s": "s",
    "torq.plan_cache.hit_ratio": "ratio",
    "autodiff.input_grad.self_s": "s",
    "autodiff.backward.self_s": "s",
    "autodiff.tape.replay_s": "s",
    "autodiff.tape.hit_ratio": "ratio",
    "losses.assembly.self_s": "s",
    "optim.step.self_s": "s",
    "weighting.curriculum.self_s": "s",
    "trainer.other.self_s": "s",
    "checkpoint.write_s": "s",
    "checkpoint.writes": "count",
    "metrics.l2.incl_s": "s",
    "metrics.l2.calls": "count",
    "setup.reference_s": "s",
    "setup.model_s": "s",
    "setup.first_epoch_s": "s",
    "serve.load_s": "s",
    "serve.warmup_s": "s",
    "serve.predict.row_us": "us",
    "serve.pad_ratio": "ratio",
    "serve.arena_bytes": "bytes",
    "serve.cold_mismatch_rows": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}

#: per-unit self time of these span names
_SELF = {
    "nn.features.self_s": "nn.features",
    "nn.linear.self_s": "nn.linear",
    "nn.model.self_s": "nn.model",
    "torq.layer.self_s": "torq.layer",
    "autodiff.input_grad.self_s": "autodiff.input_grad",
    "autodiff.backward.self_s": "autodiff.backward",
    "losses.assembly.self_s": "losses.assembly",
    "optim.step.self_s": "optim.step",
    "weighting.curriculum.self_s": "weighting.curriculum",
}
#: per-unit inclusive time of these span names
_INCL = {
    "autodiff.tape.replay_s": "autodiff.tape.replay",
    "checkpoint.write_s": "checkpoint.write",
    "metrics.l2.incl_s": "metrics.l2",
    "torq.entanglement.incl_s": "torq.entanglement",
}
#: per-unit call counts of these span names
_CALLS = {
    "checkpoint.writes": "checkpoint.write",
    "metrics.l2.calls": "metrics.l2",
}
#: whole-run durations of these setup spans
_SETUP = {
    "setup.reference_s": "setup.reference",
    "setup.model_s": "setup.model",
    "serve.load_s": "serve.load",
    "serve.warmup_s": "serve.warmup",
}

#: the tape's own validation tolerance against define-by-run
#: (``repro.autodiff.tape``: row-stable replay differs by ~1 ulp)
LIVE_TOL = 1e-12
#: served requests checked against the live model per run
LIVE_CHECKS = 8


@dataclass(frozen=True)
class Spec:
    """Sizes of one workload; ``toy()`` shrinks them for the self-test."""

    name: str
    kind: str  # "train" or "serve"
    grid_n: int = 8
    epochs: int = 8
    ref_n: int = 64
    ref_snapshots: int = 12
    requests_per_pass: int = 64
    max_rows: int = 2048

    def toy(self) -> "Spec":
        return replace(self, grid_n=3, epochs=3, ref_n=16, ref_snapshots=4,
                       requests_per_pass=6, max_rows=64)


#: why each workload exists is written in BENCHMARK.json
WORKLOADS = {
    "qpinn-paper-g8": Spec("qpinn-paper-g8", "train", epochs=13),
    "pinn-campaign-g8": Spec("pinn-campaign-g8", "train", epochs=20),
    "qpinn-serve": Spec("qpinn-serve", "serve"),
}


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
@dataclass
class Checks:
    """Counts operations and output checks; a failure never raises."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


# ----------------------------------------------------------------------
# Tracing: which public call sites get a span
# ----------------------------------------------------------------------
def _tape_on_exit(opened, args):
    """Name a compiled-step call by whether it replayed or traced."""
    replayed = args[0].cache_info()["hits"] > opened.attrs.pop("hits0")
    opened.name = ("autodiff.tape.replay" if replayed
                   else "autodiff.tape.trace")


def _tape_attrs(args):
    return {"hits0": args[0].cache_info()["hits"]}


def install_layer_spans(rec: Recorder) -> None:
    """Wrap each layer's public entry points with a span."""
    import repro.core.config as config_mod
    import repro.core.losses as losses_mod
    import repro.core.trainer as trainer_mod
    from repro.autodiff.tape import CompiledForward, CompiledStep
    from repro.core.collocation import CollocationGrid
    from repro.core.losses import MaxwellLoss
    from repro.core.models import MaxwellPINN, MaxwellQPINN
    from repro.core.weighting import TemporalCurriculum
    from repro.nn import (
        Linear, PeriodicSpaceTimeEmbedding, RandomFourierFeatures,
    )
    from repro.optim import Adam
    from repro.resilience import CheckpointManager
    from repro.serve.frozen import FrozenModel
    from repro.torq.layer import QuantumLayer

    rec.wrap(config_mod, "build_model", "setup.model")
    rec.wrap(trainer_mod, "backward", "autodiff.backward")
    rec.wrap(trainer_mod, "l2_relative_error", "metrics.l2")
    rec.wrap(trainer_mod, "meyer_wallach", "torq.entanglement")
    rec.wrap(MaxwellQPINN, "quantum_state", "torq.entanglement")
    rec.wrap(losses_mod, "grad", "autodiff.input_grad")
    rec.wrap(MaxwellLoss, "__call__", "losses.assembly")
    rec.wrap(MaxwellLoss, "loss_tensors", "losses.assembly")
    for cls in (MaxwellPINN, MaxwellQPINN):
        rec.wrap(cls, "fields", "nn.model")
    rec.wrap(PeriodicSpaceTimeEmbedding, "forward", "nn.features")
    rec.wrap(RandomFourierFeatures, "forward", "nn.features")
    rec.wrap(Linear, "forward", "nn.linear")
    rec.wrap(QuantumLayer, "forward", "torq.layer",
             attrs=lambda a: {"rows": int(a[1].shape[0])})
    rec.wrap(Adam, "step", "optim.step")
    for meth in ("weights", "update", "update_bin_losses"):
        rec.wrap(TemporalCurriculum, meth, "weighting.curriculum")
    rec.wrap(CollocationGrid, "bin_weights_vector", "weighting.curriculum")
    rec.wrap(CheckpointManager, "save", "checkpoint.write")
    for cls in (CompiledStep, CompiledForward):
        rec.wrap(cls, "__call__", "autodiff.tape", attrs=_tape_attrs,
                 on_exit=_tape_on_exit)
    rec.wrap(FrozenModel, "predict", "serve.predict",
             attrs=lambda a: {"rows": int(np.shape(a[1])[0])})


# ----------------------------------------------------------------------
# Training workloads
# ----------------------------------------------------------------------
class RowsProbe:
    """Times ``evaluate_fields`` on snapshots of the L2 lattice.

    Called once per epoch, between epochs, it evaluates the next
    ``PER_CALL`` of the snapshots ``l2_relative_error`` samples (1024 rows
    each), so the samples spread over the whole training instead of
    bunching after it: the box's speed drifts by about 10% over tens of
    seconds.
    """

    PER_CALL = 4

    def __init__(self, ref):
        nx, nt = ref.x.size, ref.times.size
        si = np.linspace(0, nx - 1, min(32, nx)).astype(int)
        ti = np.linspace(0, nt - 1, min(10, nt)).astype(int)
        xg, yg = np.meshgrid(ref.x[si], ref.y[si], indexing="ij")
        self.lattice = [(xg.ravel(), yg.ravel(), np.full(xg.size, t))
                        for t in ref.times[ti]]
        self.rows = 0
        self.times: list[float] = []

    def __call__(self, model) -> None:
        from repro.core.metrics import evaluate_fields

        for _ in range(self.PER_CALL):
            x, y, t = self.lattice[len(self.times) % len(self.lattice)]
            start = time.perf_counter()
            evaluate_fields(model, x, y, t)
            self.times.append(time.perf_counter() - start)
            self.rows += x.size


class EpochClock:
    """``epoch_hook`` that timestamps epoch ends.

    In a traced run it also rolls the ``trainer.epoch`` span: the span of
    epoch ``e`` closes here and the span of ``e + 1`` opens.  With
    ``stop_after`` it stops training after that many epochs (the set-up
    probe stops after the first).  ``probe()``, if set, runs after the
    timestamp; ``resumes`` records when the hook hands back, so epoch
    walls leave the probe out.
    """

    def __init__(self, rec: Recorder | None = None, stop_after=None):
        self.rec = rec
        self.stop_after = stop_after
        self.probe = None
        self.ends: list[float] = []
        self.resumes: list[float] = []
        self.unit = None
        self.unit_ids: list[int] = []  # warm epochs (epoch >= 1)
        self.first_epoch_s = 0.0
        self.plan_info: list[dict] = []
        self.step_info: list[dict] = []
        self.step = None  # the CompiledStep the trainer built, if any

    def __call__(self, epoch, loss, grad_norm, grad_variance):
        self.ends.append(time.perf_counter())
        if self.rec is not None:
            from repro.torq.compile import plan_cache_info

            done = self.unit
            self.rec.close(done)
            if epoch == 0:
                self.first_epoch_s = done.duration
            else:
                self.unit_ids.append(done.id)
            self.plan_info.append(plan_cache_info())
            if self.step is not None:
                self.step_info.append(self.step.cache_info())
            self.unit = self.rec.open("trainer.epoch", epoch=epoch + 1)
        if self.probe is not None:
            self.probe()
        self.resumes.append(time.perf_counter())
        return self.stop_after is not None and epoch + 1 >= self.stop_after


class TrainerTap:
    """Captures the trainer and its compiled step at their call sites."""

    def __init__(self, clock: EpochClock, rec: Recorder | None):
        self.clock = clock
        self.rec = rec
        self.trainer = None

    def __enter__(self):
        import repro.core.trainer as trainer_mod

        tap = self
        make_step = trainer_mod.compile_step
        train = trainer_mod.Trainer.train

        def capture_step(*args, **kwargs):
            step = make_step(*args, **kwargs)
            tap.clock.step = step
            return step

        def tapped_train(trainer):
            tap.trainer = trainer
            rec = tap.rec
            if rec is None:
                return train(trainer)
            root = rec.open("trainer.train")
            tap.clock.unit = rec.open("trainer.epoch", epoch=0)
            try:
                return train(trainer)
            finally:
                # what follows the last epoch hook: the final cadence
                # checkpoint and the I_BH indicator of _finalize
                tap.clock.unit.name = "trainer.finalize"
                rec.close(tap.clock.unit)
                rec.close(root)

        self._originals = (make_step, train)
        trainer_mod.compile_step = capture_step
        trainer_mod.Trainer.train = tapped_train
        return self

    def __exit__(self, *exc):
        import repro.core.trainer as trainer_mod

        trainer_mod.compile_step, trainer_mod.Trainer.train = self._originals


def execution_path(trainer, step) -> dict:
    """Which path the trainer ran, read from public objects."""
    cfg, loss = trainer.config, trainer.loss
    if step is not None:
        info = step.cache_info()
        info.pop("schedule", None)
        path = "define-by-run (fallback)" if info["disabled"] else "compiled"
        return {"path": path, "cache_info": info}
    reasons = []
    if not cfg.compile_step:
        reasons.append("compile_step is off")
    if loss.curriculum is not None:
        reasons.append("a TemporalCurriculum is attached")
    if loss.rba is not None:
        reasons.append("RBA weights are attached")
    if cfg.batch_points:
        reasons.append("batch_points mini-batching is on")
    return {"path": "define-by-run",
            "reason": "; ".join(reasons) or "not compiled"}


@dataclass
class TrainRun:
    epoch_ends: list
    walls: list  # warm epochs, each from the previous hook's hand-back
    losses: list
    l2_history: list
    model: object
    clock: EpochClock
    path: dict


def make_reference(spec: Spec, rec: Recorder | None):
    from repro.core import get_case, make_reference as solve

    with span(rec, "setup.reference"):
        return solve(get_case("vacuum"), n=spec.ref_n,
                     n_snapshots=spec.ref_snapshots)


def train_once(spec: Spec, init_seed: int, ref, workdir: Path,
               rec: Recorder | None = None, stop_after=None,
               probe: RowsProbe | None = None) -> TrainRun:
    """One training run of a training workload, start to finish."""
    from repro.core import (
        RunConfig, Trainer, TrainerConfig, get_case, run_single,
    )
    from repro.core.models import build_model

    clock = EpochClock(rec, stop_after)
    case = get_case("vacuum")
    with TrainerTap(clock, rec) as tap:
        if probe is not None:
            clock.probe = lambda: probe(tap.trainer.model)
        if spec.name == "qpinn-paper-g8":
            run = RunConfig(case="vacuum", model_kind="strongly_entangling",
                            scaling="acos", use_energy=True, seed=init_seed,
                            grid_n=spec.grid_n, epochs=spec.epochs)
            # run_single's own TrainerConfig is TrainerConfig(epochs=...);
            # the hook is the only addition.
            result = run_single(run, reference=ref, trainer_config=(
                TrainerConfig(epochs=spec.epochs, epoch_hook=clock)))
        else:
            with span(rec, "setup.model"):
                model = build_model("regular", t_max=case.t_max,
                                    rng=np.random.default_rng(init_seed))
            ckpt = workdir / f"ckpt-{time.monotonic_ns()}"
            cfg = TrainerConfig(
                epochs=spec.epochs, lr=1e-3, eval_every=0,
                track_entanglement=False, compile_step=True,
                checkpoint_dir=ckpt, checkpoint_every=2,
                checkpoint_best=False, resume_from="auto",
                epoch_hook=clock,
            )
            trainer = Trainer(model, case.make_loss(use_energy=True),
                              case.make_grid(spec.grid_n), config=cfg)
            result = trainer.train()
            shutil.rmtree(ckpt, ignore_errors=True)
    hist = result.history
    path = execution_path(tap.trainer, clock.step)
    clock.step = clock.probe = None  # nothing may outlive the training
    walls = [end - back for end, back in zip(clock.ends[1:], clock.resumes)]
    return TrainRun(clock.ends, walls, list(hist.loss),
                    list(hist.l2_error), result.model, clock, path)


def final_l2(model, ref, checks: Checks, trainer_last=None) -> float:
    """Post-training relative L2, checked against a repeat evaluation.

    The repeat is the trainer's own last L2 when it evaluated one.
    """
    from repro.core.metrics import l2_relative_error

    l2 = l2_relative_error(model, ref)
    again = (trainer_last if trainer_last is not None
             else l2_relative_error(model, ref))
    checks.check(again == l2, f"post-training L2 {l2!r} differs from a "
                 f"repeat evaluation {again!r}")
    return l2


def run_training(spec: Spec, init_seed: int, seconds: float, workdir: Path,
                 checks: Checks, ref, rec: Recorder | None = None,
                 probe: RowsProbe | None = None) -> dict:
    """Whole trainings for about ``seconds`` (at least one).

    Another training starts only if less than half of it would run past
    ``seconds``.
    """
    runs = []
    t0 = time.perf_counter()
    while not runs or (time.perf_counter() - t0) * (1 + 0.5 / len(runs)) \
            < seconds:
        run = train_once(spec, init_seed, ref, workdir, rec, probe=probe)
        if runs:
            run.model = None  # only the first training is evaluated
        runs.append(run)
        gc.collect()
    first = runs[0]
    walls = []
    for r in runs:
        checks.check(len(r.losses) == spec.epochs
                     and bool(np.all(np.isfinite(r.losses))),
                     "loss history is not finite over the full epoch budget")
        checks.check(r.losses == first.losses,
                     "repeated trainings gave different loss histories")
        walls.extend(r.walls)
    return {"runs": runs, "walls": walls}


# ----------------------------------------------------------------------
# Serving workload
# ----------------------------------------------------------------------
def request_schedule(seed: int, spec: Spec) -> list:
    """The seed's requests, rows uniform over the domain.

    Sizes are the midpoint quantiles of the log-uniform law on
    ``1..max_rows``, so every seed sends the same size mix (latency
    percentiles sit on bucket steps, and a drawn mix would move them by
    seed); the seed orders the requests and draws their rows.
    """
    rng = np.random.default_rng([seed, 1])
    r = spec.requests_per_pass
    u = (np.arange(r) + 0.5) / r
    sizes = np.rint(np.exp(u * np.log(spec.max_rows))).astype(int)
    rng.shuffle(sizes)
    return [np.column_stack([rng.uniform(-1, 1, n), rng.uniform(-1, 1, n),
                             rng.uniform(0, 1.5, n)]) for n in sizes]


def serve_setup(spec: Spec, init_seed: int, workdir: Path,
                rec: Recorder | None = None):
    """Reference, model, bundle, load and warmup: the serving set-up."""
    from repro import serve
    from repro.core import get_case
    from repro.core.models import build_model

    ref = make_reference(spec, rec)
    with span(rec, "setup.model"):
        model = build_model("strongly_entangling",
                            rng=np.random.default_rng(init_seed),
                            t_max=get_case("vacuum").t_max)
        path = serve.freeze_model(model, workdir / f"paper-{init_seed}.rqb")
    with span(rec, "serve.load"):
        frozen = serve.load_bundle(path)
    with span(rec, "serve.warmup"):
        frozen.warmup()
    return ref, model, path, frozen


def serve_loop(frozen, schedule, seconds: float, checks: Checks,
               rec: Recorder | None = None) -> dict:
    """Closed loop: one client, next request after the previous reply."""
    lat, pass_walls, outs, unit_ids = [], [], [], []
    rows = 0
    t0 = time.perf_counter()
    while not pass_walls or time.perf_counter() - t0 < seconds:
        unit = rec.open("serve.pass") if rec else None
        outs_pass = []
        p0 = time.perf_counter()
        for pts in schedule:
            a = time.perf_counter()
            try:
                out = frozen.predict(pts)
            except Exception as exc:  # counted as failed below, not fatal
                out = repr(exc)
            lat.append(time.perf_counter() - a)
            outs_pass.append(out)
        pass_walls.append(time.perf_counter() - p0)
        if unit is not None:
            rec.close(unit)
            unit_ids.append(unit.id)
        rows += sum(len(p) for p in schedule)
        outs.append(outs_pass)
    for k, outs_pass in enumerate(outs):
        for pts, out in zip(schedule, outs_pass):
            ok = (isinstance(out, np.ndarray) and out.shape == (len(pts), 3)
                  and bool(np.all(np.isfinite(out))))
            checks.check(ok, f"{len(pts)}-row request failed: {out!r:.200}"
                         if not isinstance(out, np.ndarray) else
                         f"{len(pts)}-row answer has the wrong shape or "
                         "is not finite")
        if k:
            # a later pass must repeat the first one bitwise
            same = all(isinstance(a, np.ndarray) and np.array_equal(a, b)
                       for a, b in zip(outs_pass, outs[0]))
            checks.check(same, f"pass {k} differs bitwise from pass 0")
    return {"lat": lat, "pass_walls": pass_walls, "rows": rows,
            "busy": float(sum(pass_walls)), "outs": outs[0],
            "unit_ids": unit_ids}


def served_l2(frozen, ref) -> float:
    """Relative L2 of the served answers on the trainer's L2 lattice."""
    from repro.autodiff import Tensor
    from repro.core.metrics import l2_relative_error

    class Served:
        """The frozen model behind the ``fields`` API the metric calls."""

        def fields(self, x, y, t):
            out = frozen.predict(np.hstack([x.data, y.data, t.data]))
            return (Tensor(out[:, 0:1]), Tensor(out[:, 1:2]),
                    Tensor(out[:, 2:3]))

    return l2_relative_error(Served(), ref)


def check_live(model, frozen, schedule, outs, seed: int,
               checks: Checks) -> dict:
    """Sampled answers against the live model, and row invariance.

    Served rows must agree with the live model's ``no_grad`` forward to
    the tape's validation tolerance (not bitwise: the row-stable replay
    kernels sum in another order than BLAS), and the first and last row
    of a request must come back bitwise the same when predicted alone.
    """
    from repro.autodiff import Tensor, no_grad

    order = np.argsort([len(p) for p in schedule])
    rng = np.random.default_rng([seed, 2])
    picks = {int(order[0]), int(order[-1])}
    picks |= {int(i) for i in rng.choice(
        len(schedule), min(len(schedule), LIVE_CHECKS - 2),
        replace=False)}
    worst, bitwise = 0.0, 0
    for i in sorted(picks):
        pts, out = schedule[i], outs[i]
        with no_grad():
            live = model(Tensor(pts[:, 0:1]), Tensor(pts[:, 1:2]),
                         Tensor(pts[:, 2:3])).data
        diff = float(np.max(np.abs(live - out)))
        worst = max(worst, diff)
        bitwise += int(diff == 0.0)
        checks.check(diff <= LIVE_TOL,
                     f"served rows differ from the live forward by {diff}")
        for j in {0, len(pts) - 1}:
            alone = frozen.predict(pts[j:j + 1])
            checks.check(np.array_equal(alone[0], out[j]),
                         f"row {j} of a {len(pts)}-row request is not "
                         "row-invariant")
    return {"requests": len(picks), "max_abs_diff": worst,
            "bitwise_equal_requests": bitwise}


def cold_mismatch_rows(path, schedule, warm) -> int:
    """Rows a cold (un-warmed) model answers differently from a warm one.

    On a cold ``FrozenModel`` the first call per bucket is the trace
    call; over one pass of the schedule, count the rows whose answer is
    not bitwise the warmed model's.
    """
    from repro import serve

    gc.collect()
    cold = serve.load_bundle(path)
    return sum(int((~(cold.predict(pts) == out).all(axis=1)).sum())
               for pts, out in zip(schedule, warm)
               if isinstance(out, np.ndarray))


def hit_ratio(before: dict, after: dict) -> float:
    """Cache hits over lookups between two ``cache_info`` snapshots."""
    hits = after["hits"] - before["hits"]
    total = hits + after["misses"] - before["misses"]
    return hits / total if total else 0.0


def layer_metrics(rec: Recorder, unit_ids: list, extra: dict) -> dict:
    """Every per-layer metric from the spans of the given units.

    Times and counts are per unit (warm epoch or pass); ``extra`` holds
    the values read from caches rather than spans.
    """
    agg = aggregate_units(rec.spans, unit_ids)
    n = max(1, len(unit_ids))
    m = {k: agg["self"].get(v, 0.0) / n for k, v in _SELF.items()}
    m.update({k: agg["incl"].get(v, 0.0) / n for k, v in _INCL.items()})
    m.update({k: agg["calls"].get(v, 0) / n for k, v in _CALLS.items()})
    m["torq.layer.rows"] = agg["attr"].get("torq.layer", {}).get("rows", 0) / n
    m["trainer.other.self_s"] = agg["unit_self"] / n
    m["trace.coverage"] = agg["covered"] / agg["wall"] if agg["wall"] else 0.0
    for key, name in _SETUP.items():
        first = next((s for s in rec.spans if s.name == name), None)
        m[key] = first.duration if first is not None else 0.0
    m.update(extra)
    return {k: float(m.get(k, 0.0)) for k in PER_LAYER}
