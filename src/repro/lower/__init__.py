"""Backend lowering: precision tiers and in-place execution for hot kernels.

``repro.lower`` takes the repo's two *frozen artifacts* — compiled TorQ
:class:`~repro.torq.compile.ExecutionPlan` objects and autodiff
:class:`~repro.autodiff.tape.Tape` schedules — and re-runs them at a
chosen precision tier: plans on raw NumPy planes (this package), tapes
through ``compile_step``'s ``precision`` argument (below).  A
:class:`LoweringConfig` has three fields: ``precision``,
``plan_memory`` and ``autotune``.

Entry points:

* :func:`lower_plan` — compile + lower a gate sequence under a
  :class:`LoweringConfig` (cached; the cache key incorporates the
  circuit structure and :meth:`LoweringConfig.key`).
* :func:`lower_compiled` — lower an already-compiled plan, uncached.
* :func:`audit_plan` — per-op error-budget accounting: run a lowered
  plan step-by-step against the float64 seed plan and report each
  step's amplitude deviation.
* :mod:`repro.lower.budget` — the documented error budgets the float32
  tier is tested against.

Lowering builds one step per plan step at the tier dtypes.  Fused
single-qubit runs always execute structure-of-arrays (backend
``"soa"``): the two statevector planes are packed into one contiguous
``(batch, pre, 4, post)`` buffer so a whole fused run is one real 4×4
block-GEMM.  Every other step runs plane arithmetic (backend
``"numpy"``).  At float64 every kernel mirrors the seed arithmetic, so
the default stays bitwise.

Memory-planned execution (``plan_memory=True``):

``LoweringConfig(plan_memory=True)`` routes ``run_planes`` /
``z_expectations`` / ``adjoint_vjp`` through a
:class:`~repro.lower.inplace.PlannedExecution` bound per batch size: all
intermediates (plane ping-pongs, SoA pack buffers, phase scratches,
complex adjoint carriers) are liveness-planned into shared arena slots
(:mod:`repro.lower.memplan`) and the warm path performs **zero
statevector-sized allocations** — forward, readout, and (float32)
adjoint all run in place.  The float64 planned path stays bitwise
identical to the unplanned executor (the readout scratch layout is
probed from one seed run); the float64 adjoint delegates to the seed
kernels unchanged.  ``LoweredPlan.memory_report()`` returns the arena
and autotune audit per bound batch.

With ``autotune=True`` (float32 and ``plan_memory=True`` only) the
planned executor picks each fused-run kernel per shape class — batch,
qubit count, run extents, dtype — by microbenchmark instead of the
built-in heuristic.  Winners are recorded in
``LoweredPlan.autotune_decisions`` and persisted to a small JSON cache
keyed by the machine's environment fingerprint
(:func:`repro.obs.envinfo.env_fingerprint`), so the benchmarks run once
per shape class per machine.  The cache lives at
``$REPRO_AUTOTUNE_CACHE_DIR/autotune-<fingerprint>.json`` (default
``~/.cache/repro/``); :func:`clear_autotune_cache` drops it and
:func:`autotune_cache_info` reports its location and size.

Config surfaces: ``QuantumLayer(precision="float32")`` (requires
``grad_method="adjoint"``; an explicit ``lowering=LoweringConfig(...)``
also sets ``plan_memory``/``autotune``), ``TrainerConfig.precision`` /
``PDETrainerConfig.precision`` (the tape-replay tier), and
``compile_step(fn, params, precision=...)`` directly.  Every cache
involved — lowered plans, tape executors, ``zero_state`` frozen bases —
incorporates the tier (and the config flags) in its key, so tiers never
alias each other's artifacts.

Tape lowering (the float32 replay tier) lives in
:func:`repro.autodiff.tape.compile_step` via its ``precision`` argument;
this package supplies its budget and shares the tier vocabulary.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .budget import (
    amplitude_budget,
    expectation_budget,
    gradient_budget,
    tape_budget,
)
from .autotune import (
    AUTOTUNE_CACHE_ENV_VAR,
    Autotuner,
    autotune_cache_info,
    clear_autotune_cache,
    get_autotuner,
)
from .config import PRECISION_TIERS, LoweringConfig
from .memplan import Arena, BufferSpec, MemoryPlan, plan_buffers
from .plan_exec import LoweredPlan, build_lowered_steps

__all__ = [
    "LoweringConfig",
    "LoweredPlan",
    "PRECISION_TIERS",
    "AUTOTUNE_CACHE_ENV_VAR",
    "env_fingerprint_cached",
    "lower_plan",
    "lower_compiled",
    "audit_plan",
    "clear_lowered_cache",
    "lowered_cache_info",
    "amplitude_budget",
    "expectation_budget",
    "gradient_budget",
    "tape_budget",
    "Autotuner",
    "get_autotuner",
    "clear_autotune_cache",
    "autotune_cache_info",
    "BufferSpec",
    "MemoryPlan",
    "Arena",
    "plan_buffers",
    "PlannedExecution",
]


def __getattr__(name):
    # PlannedExecution imports from plan_exec at module load; exposing it
    # lazily avoids the circular import while keeping the public surface.
    if name == "PlannedExecution":
        from .inplace import PlannedExecution

        return PlannedExecution
    raise AttributeError(name)


def lower_compiled(plan, config: LoweringConfig | None = None) -> LoweredPlan:
    """Lower an already-compiled :class:`ExecutionPlan` (uncached)."""
    config = config or LoweringConfig()
    return LoweredPlan(
        plan, config, build_lowered_steps(plan, config.rdtype, config.cdtype)
    )


# Lowered plans are tiny (they borrow the seed plan's precomputed
# buffers) but lowering per call would rebuild every step on every
# forward; same LRU discipline as the plan cache underneath.
_LOWERED_CACHE: "OrderedDict[tuple, LoweredPlan]" = OrderedDict()
_LOWERED_CACHE_MAX = 512
# The serve path rehydrates lowered plans from executor threads while
# the front end polls cache stats; one lock covers dict + fingerprint.
_lowered_cache_lock = threading.RLock()

# Planned artifacts carry autotuned kernel decisions, which are only
# valid for the environment that benchmarked them; key the LRU on the
# environment fingerprint (memoised — it never changes within a process)
# so a persisted/forked cache can never serve another machine's choices.
_ENV_FP: str | None = None


def _env_fp() -> str:
    global _ENV_FP
    if _ENV_FP is None:
        from ..obs.envinfo import env_fingerprint

        _ENV_FP = env_fingerprint()
    return _ENV_FP


def env_fingerprint_cached() -> str:
    """The process-memoised environment fingerprint lowered-plan cache
    keys use (also what serve bundles record at freeze time)."""
    return _env_fp()


def lower_plan(gates, n_qubits: int, config: LoweringConfig | None = None,
               cache: bool = True) -> LoweredPlan:
    """Compile a gate sequence and lower it under ``config``.

    Keyed on the same circuit-structure key as the plan cache *plus*
    :meth:`LoweringConfig.key`, so precision tiers and planned/unplanned
    configs never alias each other's lowered artifacts.
    """
    from ..torq.compile import compile_gates

    config = config or LoweringConfig()
    gates = tuple(gates)
    plan = compile_gates(gates, n_qubits, cache=cache)
    if not cache:
        return lower_compiled(plan, config)
    key = (
        n_qubits,
        tuple((g.name, g.qubits, g.params) for g in gates),
        config.key(),
        _env_fp(),
    )
    with _lowered_cache_lock:
        lowered = _LOWERED_CACHE.get(key)
        if lowered is not None and lowered.plan is plan:
            _LOWERED_CACHE.move_to_end(key)
            return lowered
    lowered = lower_compiled(plan, config)
    with _lowered_cache_lock:
        existing = _LOWERED_CACHE.get(key)
        if existing is not None and existing.plan is plan:
            # A concurrent caller lowered the same structure; share it.
            _LOWERED_CACHE.move_to_end(key)
            return existing
        if len(_LOWERED_CACHE) >= _LOWERED_CACHE_MAX:
            _LOWERED_CACHE.popitem(last=False)
        _LOWERED_CACHE[key] = lowered
    return lowered


def clear_lowered_cache() -> None:
    """Drop every cached lowered plan (test hook)."""
    with _lowered_cache_lock:
        _LOWERED_CACHE.clear()


def lowered_cache_info() -> dict:
    """Cache statistics: ``{"size", "capacity"}``."""
    with _lowered_cache_lock:
        return {"size": len(_LOWERED_CACHE), "capacity": _LOWERED_CACHE_MAX}


def audit_plan(lowered: LoweredPlan, values, batch: int | None = None) -> list[dict]:
    """Per-op error-budget accounting against the float64 seed plan.

    Runs the lowered plan and the seed :class:`ExecutionPlan` side by
    side from |0…0⟩ and records, after every step, the max-abs deviation
    of the lowered amplitudes from the float64 oracle.  ``values`` is
    the flat parameter list (floats or ``(batch,)`` arrays).  Returns a
    list of ``{"kind", "gates", "backend", "max_abs_err"}``
    records in step order — the float64 tier reports 0.0 everywhere.
    """
    from ..autodiff import no_grad
    from ..torq.state import zero_state

    if batch is None:
        batch = 1
        for v in values:
            arr = np.asarray(getattr(v, "data", v))
            if arr.ndim == 1:
                batch = int(arr.shape[0])
                break

    def resolve(i: int):
        return values[i]

    seed_state = zero_state(batch, lowered.n_qubits)
    tensor = seed_state.tensor
    lo = zero_state(batch, lowered.n_qubits, dtype=lowered.rdtype)
    re, im = lo.tensor.re.data, lo.tensor.im.data
    records = []
    with no_grad():
        for seed_step, step in zip(lowered.plan.steps, lowered.steps):
            tensor = seed_step(tensor, resolve)
            re, im = step.forward(re, im, resolve)
            err = max(
                float(np.max(np.abs(re.astype(np.float64) - tensor.re.data))),
                float(np.max(np.abs(im.astype(np.float64) - tensor.im.data))),
            )
            records.append(
                {
                    "kind": step.kind,
                    "gates": list(step.gates),
                    "backend": step.backend,
                    "max_abs_err": err,
                }
            )
    return records
