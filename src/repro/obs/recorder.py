"""JSONL run recording: one event object per line.

Schema (``schema`` version 1) — every line is a JSON object with a
``kind`` discriminator:

* ``{"kind": "meta", "schema": 1, ...}`` — first line; free-form run
  metadata passed to the recorder.
* ``{"kind": "epoch", "epoch": int, "loss": float, "grad_norm": float,
  "grad_variance": float, ...}`` — per-epoch training telemetry emitted by
  the training loop (components, learning rate, parameter drift, and L2
  error appear when available).
* ``{"kind": "metrics", "snapshot": [...]}`` — a full
  :meth:`~repro.obs.registry.MetricsRegistry.snapshot`, appended when a
  run finishes (scope timers, per-op autodiff profile, torq counters).
* any other ``kind`` — free-form events from user code via
  :meth:`RunRecorder.emit`.

The active recorder is process-global: the training loop fetches it with
:func:`get_recorder` and emit only when one is installed, so the default
(unobserved) path performs no observability work.  The usual entry point is
the :func:`observe` context manager::

    with obs.observe("run.jsonl", profile=True):
        PDETrainer(model, problem).train()
    # then: python -m repro.obs summarize run.jsonl
"""

from __future__ import annotations

import contextlib
import json
from typing import IO, Iterator

from . import registry as _registry
from .profile import profile as _profile_context

__all__ = ["RunRecorder", "observe", "get_recorder", "set_recorder"]

SCHEMA_VERSION = 1


def _json_default(obj):
    """Coerce NumPy scalars/arrays (and other oddballs) to JSON types."""
    if hasattr(obj, "item") and callable(obj.item):
        try:
            return obj.item()
        except (TypeError, ValueError):
            pass
    if hasattr(obj, "tolist"):
        return obj.tolist()
    return str(obj)


class RunRecorder:
    """Append-only JSONL event writer for one run."""

    def __init__(self, path: str, meta: dict | None = None):
        self.path = str(path)
        self._fh: IO[str] | None = open(self.path, "w", encoding="utf-8")
        self.n_events = 0
        self.emit("meta", schema=SCHEMA_VERSION, **(meta or {}))

    def emit(self, kind: str, **fields) -> None:
        """Write one event line of the given ``kind``."""
        if self._fh is None:
            raise ValueError("recorder is closed")
        record = {"kind": kind, **fields}
        self._fh.write(json.dumps(record, default=_json_default) + "\n")
        self.n_events += 1

    def record_metrics(self, reg: _registry.MetricsRegistry | None = None) -> None:
        """Append a full registry snapshot event."""
        reg = reg if reg is not None else _registry.metrics()
        self.emit("metrics", snapshot=reg.snapshot())

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: the process-global active recorder (None = recording disabled)
_ACTIVE: RunRecorder | None = None


def get_recorder() -> RunRecorder | None:
    """The active :class:`RunRecorder`, or ``None`` when not recording."""
    return _ACTIVE


def set_recorder(recorder: RunRecorder | None) -> RunRecorder | None:
    """Install ``recorder`` as the active one; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    return previous


@contextlib.contextmanager
def observe(
    path: str,
    profile: bool = False,
    reset_metrics: bool = True,
    **meta,
) -> Iterator[RunRecorder]:
    """Record everything inside the block into a JSONL trace at ``path``.

    Installs a fresh :class:`RunRecorder` as the active recorder (trainers
    and instrumented code pick it up automatically), optionally enables
    op-level autodiff profiling, and appends a final registry snapshot on
    exit.  ``reset_metrics`` starts from a clean global registry so the
    snapshot covers exactly this run.

    Nested ``observe`` blocks restore the outer recorder on exit, but the
    registry is process-global: an inner block with the default
    ``reset_metrics=True`` clears metrics the outer run has accumulated so
    far.  Pass ``reset_metrics=False`` to the inner block to avoid that.
    """
    reg = _registry.metrics()
    if reset_metrics:
        reg.reset()
    recorder = RunRecorder(path, meta=meta or None)
    previous = set_recorder(recorder)
    prof_ctx = _profile_context(reg) if profile else contextlib.nullcontext()
    try:
        with prof_ctx:
            yield recorder
    finally:
        set_recorder(previous)
        try:
            recorder.record_metrics(reg)
        finally:
            recorder.close()
