"""repro.obs -- zero-dependency observability for the token pipeline.

SMACS's evaluation is entirely about measured cost (per-token gas, TS
throughput vs batch size, call-chain latency), yet until this package the
reproduction could only observe itself through ad-hoc benchmark scripts.
``repro.obs`` gives every layer one shared vocabulary:

- :mod:`repro.obs.registry` -- ``Counter`` / ``Gauge`` / log-scale
  ``Histogram`` metrics with JSON-safe snapshots;
- :mod:`repro.obs.trace` -- a ``Tracer`` producing nested spans whose
  context rides the wire envelopes (one optional field, both codec lanes);
- :mod:`repro.obs.handle` -- the ``Observability`` handle gluing the two
  together plus the named stage timers (``gateway_decode`` ...
  ``commit_fsync``) that instrument the hot path.  Uninstrumented objects
  hold the shared ``DORMANT`` handle, whose hooks do nothing, so every hook
  site has one path.
- :mod:`repro.obs.dump` -- ``python -m repro.obs.dump`` renders a snapshot
  (file, stdin or a live ``tcp://`` gateway) as text or JSON.

The package deliberately imports nothing from the rest of ``repro`` so any
layer -- api, pipeline, storage, benchmarks -- can depend on it without
cycles.  Instrumentation is strictly off-chain: no metric or span ever
touches gas accounting or consensus state.
"""

from repro.obs.handle import DORMANT, STAGES, Observability
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Span, TraceContext, Tracer

__all__ = [
    "DORMANT",
    "STAGES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "Span",
    "TraceContext",
    "Tracer",
]
