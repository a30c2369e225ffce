"""Per-shape kernel autotuning for lowered execution.

Without tuning, the planned executor chooses between kernel variants
(SoA pack-GEMM vs strided 2×2 apply, broadcast vs column-major GEMM
layouts) with a heuristic hardcoded from one machine's
microbenchmarks.  The win is real but the crossover moves with BLAS,
CPU, and shape: a broadcasted
``(4,4) @ (batch, pre, 4, post)`` matmul degenerates into ``batch*pre``
tiny GEMM dispatches once ``pre`` grows (the last qubits of a large
register) and loses ~9× to a single ``(4, N)`` column GEMM, while for
the first qubits the broadcast form wins.  No single hardcoded choice
is right across a 9..14-qubit sweep.

:class:`Autotuner` replaces the heuristic with measurement: the first
time a planned execution binds a given *shape class* it runs each
candidate kernel a few times on the real arena buffers, keeps the
minimum wall time, and records the winner.  Decisions persist to a JSON
cache on disk **keyed by the** :func:`repro.obs.envinfo.env_fingerprint`
— a digest of CPU model, BLAS, NumPy and interpreter versions — so a
choice benchmarked on one machine can never leak onto another; a new
fingerprint simply starts an empty cache file.

Cache location: ``$REPRO_AUTOTUNE_CACHE_DIR`` when set, else
``~/.cache/repro`` — one ``autotune-<fingerprint>.json`` per
environment.  Clear it with :func:`clear_autotune_cache` (or delete the
file); inspect it with :func:`autotune_cache_info`.

Only the float32 tier consults the tuner.  The float64 tier's kernel
sequence *is* the bitwise contract with the seed, so its kernels are
pinned, never tuned: ``LoweringConfig(autotune=True)`` raises unless
``precision="float32"`` and ``plan_memory=True``.

Under profiling the tuner reports ``lower.autotune.hit`` /
``lower.autotune.miss`` counters and a ``lower.autotune.bench`` timer
per microbenchmarked candidate.
"""

from __future__ import annotations

import json
import os
import threading
import time

from .. import obs
from ..obs.envinfo import env_fingerprint

__all__ = [
    "AUTOTUNE_CACHE_ENV_VAR",
    "Autotuner",
    "get_autotuner",
    "clear_autotune_cache",
    "autotune_cache_info",
]

#: Environment variable overriding the on-disk decision cache directory.
AUTOTUNE_CACHE_ENV_VAR = "REPRO_AUTOTUNE_CACHE_DIR"


def _cache_dir() -> str:
    override = os.environ.get(AUTOTUNE_CACHE_ENV_VAR)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def _cache_path() -> str:
    return os.path.join(_cache_dir(), f"autotune-{env_fingerprint()}.json")


class Autotuner:
    """Microbenchmark-driven kernel selection with a persistent cache.

    ``decide(key, candidates)`` returns the name of the fastest
    candidate for ``key`` — a hashable shape-class tuple such as
    ``("fused_fwd", batch_bucket, n_qubits, pre, run_len)``.  Candidates
    are zero-argument callables closing over the real buffers they
    would run on; each is timed as ``min`` over ``reps`` runs after
    ``warmup`` throwaway calls.  Decisions are memoised in memory and
    mirrored to the per-fingerprint JSON file, so a process (and every
    later process on the same environment) benches each shape class at
    most once.
    """

    def __init__(self, path: str | None = None):
        self.path = path if path is not None else _cache_path()
        self.fingerprint = env_fingerprint()
        self._decisions: dict[str, dict] | None = None
        # Serialises load/bench/save: concurrent serve warmups must not
        # interleave microbenchmarks or clobber the JSON mirror.
        self._lock = threading.RLock()

    # -- persistence ---------------------------------------------------
    def _load(self) -> dict[str, dict]:
        if self._decisions is not None:
            return self._decisions
        decisions: dict[str, dict] = {}
        try:
            with open(self.path, encoding="utf-8") as fh:
                payload = json.load(fh)
            if (
                isinstance(payload, dict)
                and payload.get("fingerprint") == self.fingerprint
                and isinstance(payload.get("decisions"), dict)
            ):
                decisions = payload["decisions"]
        except (OSError, ValueError):
            # Missing or corrupt cache: start fresh, never raise.
            decisions = {}
        self._decisions = decisions
        return decisions

    def _save(self) -> None:
        payload = {
            "fingerprint": self.fingerprint,
            "decisions": self._decisions or {},
        }
        tmp = f"{self.path}.tmp.{os.getpid()}"
        try:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
            os.replace(tmp, self.path)
        except OSError:
            # Read-only filesystem / sandbox: decisions stay in memory.
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- decisions -----------------------------------------------------
    @staticmethod
    def _key_str(key: tuple) -> str:
        return "|".join(str(k) for k in key)

    def decide(self, key: tuple, candidates: dict[str, object],
               reps: int = 3, warmup: int = 1) -> str:
        """The fastest candidate name for this shape class."""
        if not candidates:
            raise ValueError("no candidates to autotune")
        with self._lock:
            return self._decide_locked(key, candidates, reps, warmup)

    def _decide_locked(self, key: tuple, candidates: dict[str, object],
                       reps: int, warmup: int) -> str:
        decisions = self._load()
        k = self._key_str(key)
        entry = decisions.get(k)
        profiling = obs.is_profiling()
        if entry is not None:
            winner = entry.get("winner")
            if winner in candidates:
                if profiling:
                    obs.metrics().counter("lower.autotune.hit").inc()
                return winner
            # The persisted winner is not a candidate here: the cache was
            # written for another kernel set (e.g. its winner is the
            # removed "numba" kernel).  Return the fastest recorded
            # timing among the current candidates without running any
            # of them; with none recorded, re-benchmark below.
            timings = entry.get("timings_ms", {})
            avail = {n: t for n, t in timings.items() if n in candidates}
            if avail:
                if profiling:
                    obs.metrics().counter("lower.autotune.hit").inc()
                return min(avail, key=avail.get)
        if profiling:
            obs.metrics().counter("lower.autotune.miss").inc()
        timings_ms: dict[str, float] = {}
        for name, fn in candidates.items():
            if profiling:
                timer = obs.metrics().timer(
                    "lower.autotune.bench", candidate=name
                )
                ctx = timer.time()
            else:
                ctx = None
            try:
                if ctx is not None:
                    ctx.__enter__()
                for _ in range(warmup):
                    fn()
                best = float("inf")
                for _ in range(max(1, reps)):
                    t0 = time.perf_counter()
                    fn()
                    best = min(best, time.perf_counter() - t0)
            finally:
                if ctx is not None:
                    ctx.__exit__(None, None, None)
            timings_ms[name] = best * 1e3
        winner = min(timings_ms, key=timings_ms.get)
        decisions[k] = {"winner": winner, "timings_ms": timings_ms}
        self._save()
        return winner

    def lookup(self, key: tuple) -> dict | None:
        """The recorded decision entry for ``key`` (None if unseen)."""
        with self._lock:
            return self._load().get(self._key_str(key))

    def entries(self) -> dict[str, dict]:
        """A copy of every recorded decision."""
        with self._lock:
            return dict(self._load())


# One tuner per (cache path) — i.e. per environment fingerprint and per
# REPRO_AUTOTUNE_CACHE_DIR override, so tests pointing the cache at a
# tmpdir get a fresh instance.
_TUNER: Autotuner | None = None
_tuner_lock = threading.Lock()


def get_autotuner() -> Autotuner:
    """The process-wide :class:`Autotuner` for the current environment."""
    global _TUNER
    path = _cache_path()
    with _tuner_lock:
        if _TUNER is None or _TUNER.path != path:
            _TUNER = Autotuner(path)
        return _TUNER


def clear_autotune_cache() -> None:
    """Forget every autotune decision, in memory and on disk."""
    global _TUNER
    path = _cache_path()
    with _tuner_lock:
        _TUNER = None
    try:
        os.unlink(path)
    except OSError:
        pass


def autotune_cache_info() -> dict:
    """Cache location and size: ``{"path", "fingerprint", "entries"}``."""
    tuner = get_autotuner()
    return {
        "path": tuner.path,
        "fingerprint": tuner.fingerprint,
        "entries": len(tuner.entries()),
    }
