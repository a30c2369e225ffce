"""Campaign job runners and the spawned worker-process entry point.

A **runner** trains (or probes) exactly one job — one ``(config, seed)``
cell — inside a fresh spawned process, under the full resilience stack:

* every trainer runs with ``checkpoint_dir`` inside the job directory
  and ``resume_from="auto"``, so any retry of a killed attempt resumes
  bitwise from the newest valid archive;
* the trainer ``epoch_hook`` appends one flushed telemetry line per
  epoch (``telemetry.jsonl``: epoch, loss, grad norm, grad variance)
  *before* the epoch's cadence checkpoint can be written — after any
  crash, the persisted series always covers at least every epoch the
  resume point knows about, which is what lets the job reconstruct its
  **full** loss series across attempts and lets the
  :class:`~repro.campaign.monitor.CampaignMonitor` replay its verdicts;
* the same hook touches the job's ``heartbeat`` file, giving the
  supervisor per-epoch progress liveness (a worker stuck *inside* an
  epoch goes stale and is killed, not waited on forever).

Runners are resolved by name from a registry (builtins: ``"pde"``,
``"maxwell"``, ``"serve_probe"``, ``"failing"``) or by a dotted
``"module:function"`` path, so campaign specs stay picklable strings.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "JobContext",
    "register_runner",
    "resolve_runner",
    "read_telemetry",
    "worker_entry",
    "EXIT_OK",
    "EXIT_ERROR",
    "EXIT_INTERRUPTED",
]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INTERRUPTED = 3

_RUNNERS: dict = {}


def register_runner(name: str):
    """Decorator registering a builtin runner under ``name``."""

    def wrap(fn):
        _RUNNERS[name] = fn
        return fn

    return wrap


def resolve_runner(name: str):
    """A registered runner, or an imported ``"module:function"`` path."""
    if name in _RUNNERS:
        return _RUNNERS[name]
    if ":" in name:
        mod_name, attr = name.split(":", 1)
        module = importlib.import_module(mod_name)
        return getattr(module, attr)
    raise KeyError(
        f"unknown runner {name!r}; builtins: {sorted(_RUNNERS)} "
        f"(or use a dotted 'module:function' path)"
    )


# ----------------------------------------------------------------------
# Telemetry persistence
# ----------------------------------------------------------------------
def read_telemetry(path) -> dict[int, tuple]:
    """Epoch → ``(loss, grad_norm, grad_variance)`` from the job file.

    Later lines win (a resumed attempt re-records replayed epochs with
    bitwise-identical values); a torn trailing line is dropped.
    """
    path = Path(path)
    if not path.exists():
        return {}
    rows: dict[int, tuple] = {}
    lines = path.read_text(encoding="utf-8").split("\n")
    last = len(lines) - 1
    for i, line in enumerate(lines):
        if not line:
            continue
        try:
            epoch, loss, norm, var = json.loads(line)
        except (json.JSONDecodeError, ValueError):
            if i == last:
                continue  # torn tail: crash mid-append
            raise
        rows[int(epoch)] = (float(loss), float(norm), float(var))
    return rows


def _full_loss_series(rows: dict[int, tuple]) -> list[float]:
    """The contiguous loss series 0..max from the telemetry fold."""
    if not rows:
        return []
    epochs = sorted(rows)
    if epochs[0] != 0 or epochs[-1] != len(epochs) - 1:
        missing = sorted(set(range(epochs[-1] + 1)) - set(epochs))
        raise RuntimeError(
            f"telemetry series has gaps at epochs {missing[:8]}; the "
            f"journal/telemetry contract was violated"
        )
    return [rows[e][0] for e in epochs]


def _atomic_json(path: Path, payload: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# Job context: everything a runner needs, wired for crash convergence
# ----------------------------------------------------------------------
@dataclass
class JobContext:
    """Per-attempt runtime handed to a runner inside the worker."""

    job_id: str
    config_name: str
    seed: int
    params: dict
    job_dir: Path
    checkpoint_every: int = 2
    monitor_config: dict | None = None
    #: chaos (test-only): SIGKILL self at the end of this epoch
    kill_at_epoch: int | None = None
    #: chaos (test-only): hang (sleep) at the end of this epoch
    hang_at_epoch: int | None = None

    def __post_init__(self):
        self.job_dir = Path(self.job_dir)
        self.job_dir.mkdir(parents=True, exist_ok=True)
        self.checkpoint_dir = self.job_dir / "ckpt"
        self.telemetry_path = self.job_dir / "telemetry.jsonl"
        self.heartbeat_path = self.job_dir / "heartbeat"
        self.monitor = None
        self._telemetry_fh = None

    # -- heartbeat ------------------------------------------------------
    def heartbeat(self) -> None:
        self.heartbeat_path.touch()

    # -- the trainer epoch hook ----------------------------------------
    def make_hook(self, optimizer=None):
        """Build the epoch hook: telemetry + heartbeat + monitor + chaos.

        Must be called once per attempt, before training: it replays any
        persisted telemetry through the monitor so verdicts (and an
        ``lr_cut`` mitigation) are re-derived identically after resume.
        """
        from .monitor import CampaignMonitor, MonitorConfig

        prior = read_telemetry(self.telemetry_path)
        if self.monitor_config is not None:
            self.monitor = CampaignMonitor(
                MonitorConfig.from_dict(self.monitor_config),
                optimizer=optimizer,
            )
            self.monitor.preload(
                (e, loss, norm, var)
                for e, (loss, norm, var) in prior.items()
            )
        self._telemetry_fh = open(self.telemetry_path, "a",
                                  encoding="utf-8")

        def hook(epoch, loss, grad_norm, grad_variance):
            self._telemetry_fh.write(json.dumps(
                [epoch, loss, grad_norm, grad_variance]
            ) + "\n")
            # flush (no fsync): survives process death, which is the
            # failure mode campaign chaos injects.
            self._telemetry_fh.flush()
            self.heartbeat()
            if self.hang_at_epoch is not None and epoch == self.hang_at_epoch:
                time.sleep(3600.0)  # pragma: no cover - killed by supervisor
            if self.monitor is not None:
                return self.monitor.observe(
                    epoch, loss, grad_norm, grad_variance
                )
            return False

        return hook

    def chaos_injector(self):
        """A self-SIGKILL injector when this attempt is chaos-targeted."""
        if self.kill_at_epoch is None:
            return None
        from ..resilience import ChaosInjector

        return ChaosInjector(sigkill_end_at=(self.kill_at_epoch,))

    # -- result composition --------------------------------------------
    def compose_result(self, extra: dict | None = None) -> dict:
        """The deterministic job result, built from persisted telemetry."""
        rows = read_telemetry(self.telemetry_path)
        losses = _full_loss_series(rows)
        result = {
            "status": "ok",
            "config": self.config_name,
            "seed": self.seed,
            "epochs": len(losses),
            "final_loss": losses[-1] if losses else None,
            "losses": losses,
            "detector": (self.monitor.as_record() if self.monitor is not None
                         else None),
        }
        if extra:
            result.update(extra)
        return result


# ----------------------------------------------------------------------
# Builtin runners
# ----------------------------------------------------------------------
_PDE_DIMS = {
    "schrodinger": (2, 2),
    "burgers": (2, 1),
    "poisson": (2, 1),
    "heat": (2, 1),
    "wave": (2, 1),
    "helmholtz": (2, 1),
}


def _pde_problem(name: str):
    from .. import pde

    classes = {
        "schrodinger": pde.SchrodingerProblem,
        "burgers": pde.BurgersProblem,
        "poisson": pde.PoissonProblem,
        "heat": pde.HeatProblem,
        "wave": pde.WaveProblem,
        "helmholtz": pde.HelmholtzProblem,
    }
    if name not in classes:
        raise KeyError(f"unknown PDE problem {name!r}; one of {sorted(classes)}")
    return classes[name]()


@register_runner("pde")
def run_pde_job(ctx: JobContext) -> dict:
    """Train a :class:`~repro.pde.GenericPINN` on one generic-PDE task."""
    from ..pde import GenericPINN, PDETrainer, PDETrainerConfig

    p = ctx.params
    problem_name = p.get("problem", "schrodinger")
    problem = _pde_problem(problem_name)
    in_dim, out_dim = _PDE_DIMS[problem_name]
    model = GenericPINN(
        in_dim, out_dim, hidden=int(p.get("hidden", 16)),
        n_hidden=int(p.get("n_hidden", 2)),
        rng=np.random.default_rng(ctx.seed),
    )
    trainer = PDETrainer(model, problem, PDETrainerConfig(
        epochs=int(p.get("epochs", 40)),
        lr=float(p.get("lr", 2e-3)),
        n_collocation=int(p.get("n_collocation", 64)),
        n_data=int(p.get("n_data", 16)),
        resample_every=int(p.get("resample_every", 10)),
        eval_every=0,
        seed=ctx.seed,
        compile_step=bool(p.get("compile_step", True)),
        checkpoint_dir=ctx.checkpoint_dir,
        checkpoint_every=ctx.checkpoint_every,
        checkpoint_best=False,
        resume_from="auto",
        chaos=ctx.chaos_injector(),
    ))
    trainer.config.epoch_hook = ctx.make_hook(trainer.optimizer)
    result = trainer.train()
    if result.interrupted:
        return {"interrupted": True}
    extra = {
        "problem": problem_name,
        "early_stop_epoch": result.early_stop_epoch,
    }
    if p.get("final_l2", False):
        extra["final_l2"] = float(trainer.evaluate())
    return ctx.compose_result(extra)


@register_runner("maxwell")
def run_maxwell_job(ctx: JobContext) -> dict:
    """Train a Maxwell PINN/QPINN cell (the paper's Table-2 campaigns).

    Includes the *offline* black-hole indicator I_BH (Eq. 35) from the
    trained fields next to the monitor's *online* verdict, so campaign
    reports can reproduce the paper's BH-phenomenon statistics.
    """
    from ..core import CollocationGrid, Trainer, TrainerConfig, get_case
    from ..core.models import MaxwellPINN, MaxwellQPINN

    p = ctx.params
    rng = np.random.default_rng(ctx.seed)
    arch = p.get("arch", "pinn")
    if arch == "pinn":
        model = MaxwellPINN(depth=p.get("depth", 2),
                            hidden=int(p.get("hidden", 12)),
                            rff_features=int(p.get("rff_features", 6)),
                            rng=rng)
    elif arch == "qpinn":
        model = MaxwellQPINN(ansatz=p.get("ansatz", "basic_entangling"),
                             n_qubits=int(p.get("n_qubits", 4)),
                             n_layers=int(p.get("n_layers", 2)),
                             hidden=int(p.get("hidden", 12)),
                             rff_features=int(p.get("rff_features", 6)),
                             rng=rng)
    else:
        raise ValueError(f"unknown arch {arch!r}; 'pinn' or 'qpinn'")
    case = get_case(p.get("case", "vacuum"))
    grid = CollocationGrid(n=int(p.get("grid_n", 4)),
                           t_max=float(p.get("t_max", 1.5)))
    cfg = TrainerConfig(
        epochs=int(p.get("epochs", 8)),
        lr=float(p.get("lr", 1e-3)),
        eval_every=0,
        track_entanglement=False,
        compile_step=bool(p.get("compile_step", True)),
        checkpoint_dir=ctx.checkpoint_dir,
        checkpoint_every=ctx.checkpoint_every,
        checkpoint_best=False,
        resume_from="auto",
        chaos=ctx.chaos_injector(),
    )
    trainer = Trainer(model, case.make_loss(use_energy=True), grid,
                      config=cfg)
    trainer.config.epoch_hook = ctx.make_hook(trainer.optimizer)
    result = trainer.train()
    if result.interrupted:
        return {"interrupted": True}
    return ctx.compose_result({
        "arch": arch,
        "case": p.get("case", "vacuum"),
        "i_bh": float(result.i_bh),
        "collapsed": bool(result.collapsed),
        "converged": bool(result.converged),
        "early_stop_epoch": result.history.early_stop_epoch,
    })


@register_runner("serve_probe")
def run_serve_probe(ctx: JobContext) -> dict:
    """Load-generator cell: hammer a frozen bundle with batched predicts.

    Used by ``scripts/run_campaign.py --serve-load``: each job replays a
    seeded request stream against a ``.rqb`` bundle and reports latency
    quantiles plus an output checksum (so two campaign runs prove the
    serving path returned bit-identical answers under load).
    """
    from ..serve import load_bundle

    p = ctx.params
    frozen = load_bundle(p["bundle"])
    frozen.warmup()
    rng = np.random.default_rng(ctx.seed)
    n_requests = int(p.get("requests", 32))
    max_rows = int(p.get("max_rows", 16))
    in_dim = int(p.get("in_dim", 3))
    lat = []
    digest = 0.0
    ctx.heartbeat()
    for i in range(n_requests):
        rows = int(rng.integers(1, max_rows + 1))
        x = rng.uniform(-1.0, 1.0, (rows, in_dim))
        t0 = time.perf_counter()
        y = frozen.predict(x)
        lat.append(time.perf_counter() - t0)
        digest += float(np.sum(y))
        if i % 8 == 0:
            ctx.heartbeat()
    lat.sort()
    return {
        "status": "ok", "config": ctx.config_name, "seed": ctx.seed,
        "requests": n_requests,
        "output_digest": digest,
        "p50_ms": 1e3 * lat[len(lat) // 2],
        "p99_ms": 1e3 * lat[min(len(lat) - 1, int(0.99 * len(lat)))],
        "detector": None, "final_loss": digest, "losses": [],
        "epochs": 0,
    }


@register_runner("failing")
def run_failing_job(ctx: JobContext) -> dict:
    """Deterministically raising runner: graceful-degradation fixture."""
    raise RuntimeError(
        f"injected deterministic failure (job {ctx.job_id})"
    )


# ----------------------------------------------------------------------
# Worker process entry point
# ----------------------------------------------------------------------
def worker_entry(payload: dict) -> None:
    """Spawned-process main: run one job attempt, exit by contract.

    Exit codes: 0 = ``result.json`` written; 1 = ``error.json`` written;
    3 = cleanly interrupted (no result, requeue without penalty).  A
    SIGKILL shows up at the supervisor as a negative exit code with
    neither file — the retry path.
    """
    os._exit(_worker_body(payload))


def _worker_body(payload: dict) -> int:
    job_dir = Path(payload["job_dir"])
    job_dir.mkdir(parents=True, exist_ok=True)
    (job_dir / "heartbeat").touch()
    ctx = JobContext(
        job_id=payload["job_id"],
        config_name=payload["config_name"],
        seed=int(payload["seed"]),
        params=dict(payload["params"]),
        job_dir=job_dir,
        checkpoint_every=int(payload.get("checkpoint_every", 2)),
        monitor_config=payload.get("monitor"),
        kill_at_epoch=payload.get("kill_at_epoch"),
        hang_at_epoch=payload.get("hang_at_epoch"),
    )
    try:
        runner = resolve_runner(payload["runner"])
        result = runner(ctx)
    except BaseException as exc:  # noqa: BLE001 - reported, not hidden
        _atomic_json(job_dir / "error.json", {
            "type": type(exc).__name__, "message": str(exc),
        })
        return EXIT_ERROR
    if result.get("interrupted"):
        return EXIT_INTERRUPTED
    _atomic_json(job_dir / "result.json", result)
    return EXIT_OK
