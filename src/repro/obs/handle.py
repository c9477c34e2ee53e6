"""The ``Observability`` handle: registry + tracer + named stage timers.

Instrumented objects (gateway, client, pipeline, mempool, builder, executor,
WAL) carry an ``obs`` / ``observability`` attribute that defaults to
:data:`DORMANT`, one shared handle whose hooks do nothing, so every hook
site has a single path.  When a live handle is attached,
``obs.stage("admission")`` times the section into the ``stage.admission``
histogram and -- only when tracing is enabled *and* a span is already open
-- nests a child span so per-stage time lands inside the request's trace.
"""

from __future__ import annotations

import threading
from contextlib import AbstractContextManager, nullcontext
from typing import Any, Dict

from repro.obs.registry import Histogram, MetricsRegistry
from repro.obs.trace import Span, Tracer

__all__ = ["DORMANT", "STAGES", "Observability"]

#: The canonical pipeline stages, in request order.  ``gateway_decode`` and
#: ``issuance`` happen inside the gateway; ``admission`` .. ``commit_fsync``
#: inside ``ExecutionPipeline.run_block`` and the WAL underneath it.
STAGES = (
    "gateway_decode",
    "issuance",
    "admission",
    "build",
    "pre_warm",
    "execute",
    "commit_fsync",
)


class _StageTimer:
    """Times one stage into its histogram; optionally opens a child span."""

    __slots__ = ("_obs", "_hist", "_name", "_span", "_t0")

    def __init__(self, obs: "Observability", hist: Histogram, name: str) -> None:
        self._obs = obs
        self._hist = hist
        self._name = name
        self._span: "Span | None" = None

    def __enter__(self) -> "_StageTimer":
        tracer = self._obs.tracer
        if tracer.enabled and tracer.current() is not None:
            self._span = tracer.start(f"stage.{self._name}", stage=self._name)
        self._t0 = self._obs.clock()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        elapsed = self._obs.clock() - self._t0
        self._hist.observe(elapsed)
        span = self._span
        if span is not None:
            if exc_type is not None:
                span.tags.setdefault("error", exc_type.__name__)
            self._obs.tracer.finish(span)


class Observability:
    """Bundles a :class:`MetricsRegistry` and a :class:`Tracer` behind one handle.

    ``tracing=False`` keeps the metrics (stage histograms, counters) but
    makes every span call a no-op -- the cheap always-on mode benchmarks
    compare against full tracing.
    """

    def __init__(self, *, tracing: bool = True) -> None:
        self.registry = MetricsRegistry()
        self.clock = self.registry.now
        self.tracer = Tracer(now=self.clock, enabled=tracing)
        self._stage_hists: Dict[str, Histogram] = {}
        self._stage_lock = threading.Lock()

    # -- stage timing ----------------------------------------------------

    def _stage_hist(self, name: str) -> Histogram:
        hist = self._stage_hists.get(name)
        if hist is None:
            with self._stage_lock:
                hist = self._stage_hists.get(name)
                if hist is None:
                    hist = self.registry.histogram(f"stage.{name}")
                    self._stage_hists[name] = hist
        return hist

    def stage(self, name: str) -> AbstractContextManager[Any]:
        """``with obs.stage("build"): plan = builder.build()``"""
        return _StageTimer(self, self._stage_hist(name), name)

    def record_stage(self, name: str, seconds: float) -> None:
        """Direct recording for call sites too hot for a context manager."""
        self._stage_hist(name).observe(seconds)

    def count(self, name: str) -> None:
        """Add one to the counter ``name``."""
        self.registry.counter(name).inc()

    def stage_breakdown(self) -> Dict[str, Dict[str, Any]]:
        """Per-stage latency summary in milliseconds, canonical order first."""
        snap = self.registry.snapshot()["histograms"]
        out: Dict[str, Dict[str, Any]] = {}
        names = [s for s in STAGES if f"stage.{s}" in snap]
        names += sorted(
            n[len("stage."):] for n in snap
            if n.startswith("stage.") and n[len("stage."):] not in STAGES
        )
        for stage in names:
            h = snap[f"stage.{stage}"]
            to_ms = lambda v: None if v is None else round(v * 1000.0, 4)  # noqa: E731
            count = h["count"]
            out[stage] = {
                "count": count,
                "p50_ms": to_ms(h["p50"]),
                "p99_ms": to_ms(h["p99"]),
                "p999_ms": to_ms(h["p999"]),
                "mean_ms": None if count == 0 else round(h["sum"] / count * 1000.0, 4),
                "max_ms": to_ms(h["max"]),
            }
        return out

    # -- export ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The JSON-safe payload the ``metrics`` gateway route returns."""
        return {
            "enabled": True,
            "tracing": self.tracer.enabled,
            "metrics": self.registry.snapshot(),
            "stages": self.stage_breakdown(),
            "spans_finished": self.tracer.finished_total,
        }

    # -- attachment ------------------------------------------------------

    def instrument_pipeline(self, pipeline: Any) -> None:
        """Attach this handle to a pipeline and everything underneath it.

        ``DurableStore.attach`` hands the pipeline's handle to its WAL, so
        either order of the two calls times ``commit_fsync``.
        """
        pipeline.obs = self
        pipeline.mempool.obs = self
        pipeline.builder.obs = self
        pipeline.executor.obs = self
        if pipeline.durability is not None:
            pipeline.durability.wal.obs = self


_NO_STAGE: AbstractContextManager[Any] = nullcontext()


class _Dormant(Observability):
    """The handle of an uninstrumented object: times, counts and traces nothing.

    It is shared by every such object, so it never holds state: its tracer
    is disabled (``start`` hands back ``None``) and the hooks that would
    write its registry are no-ops.
    """

    def stage(self, name: str) -> AbstractContextManager[Any]:
        return _NO_STAGE

    def record_stage(self, name: str, seconds: float) -> None:
        pass

    def count(self, name: str) -> None:
        pass

    def snapshot(self) -> Dict[str, Any]:
        return {"enabled": False}


#: The one dormant handle: the default ``obs`` / ``observability`` of every
#: instrumented object.
DORMANT: Observability = _Dormant(tracing=False)
