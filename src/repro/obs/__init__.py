"""``repro.obs`` — dependency-free observability: metrics, profiling, telemetry.

The subsystem has three layers, all off by default and zero-overhead until
explicitly enabled:

**Metrics registry** (:mod:`repro.obs.registry`) — a process-global store
of counters, gauges, timers, and fixed-bucket histograms, keyed by
``(name, labels)``, plus nested labeled timing via ``scope``::

    from repro import obs

    obs.metrics().counter("requests", route="solve").inc()
    with obs.scope("train"):
        with obs.scope("forward"):      # recorded as "train/forward"
            ...

**Op-level profiling** (:mod:`repro.obs.profile`) — ``obs.profile()``
wraps every :mod:`repro.autodiff` operation with forward counters/timers
and hooks the reverse-mode engine to attribute VJP time per op; TorQ
circuit execution additionally records gate counts, batch-size histograms,
and per-gate state-apply timings.  Outside the context the original,
unwrapped functions are restored, so the default path pays nothing.

**Run recording** (:mod:`repro.obs.recorder`) — ``obs.observe(path)``
installs a JSONL event recorder that the training loop detects automatically,
emitting per-epoch loss components, parameter/gradient norms, and the
gradient-variance (black-hole) statistic, and appending a final registry
snapshot.  Summarise a trace with::

    with obs.observe("run.jsonl", profile=True):
        PDETrainer(model, problem).train()

    $ python -m repro.obs summarize run.jsonl

which prints per-scope wall times (with percentages), the top-k hottest
autodiff ops, and the per-epoch telemetry series.
"""

from .envinfo import (
    blas_info,
    cpu_model,
    env_fingerprint,
    environment_info,
    peak_rss_bytes,
)
from .profile import disable_profiling, enable_profiling, is_profiling, profile
from .recorder import RunRecorder, get_recorder, observe, set_recorder
from .registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    metrics,
    scope,
)
from .summarize import load_events, summarize_events, summarize_path

__all__ = [
    "MetricsRegistry", "Counter", "Gauge", "Timer", "Histogram",
    "metrics", "scope",
    "profile", "is_profiling", "enable_profiling", "disable_profiling",
    "RunRecorder", "observe", "get_recorder", "set_recorder",
    "load_events", "summarize_events", "summarize_path",
    "environment_info", "cpu_model", "blas_info",
    "env_fingerprint", "peak_rss_bytes",
]
