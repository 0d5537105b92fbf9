"""Observability: tracing, metrics, progress and logging for the simulator.

The telemetry layer threaded through the stack (PR 7):

* :mod:`repro.obs.trace` -- a low-overhead span/event :class:`Tracer`
  (process-local, off by default) plus the :class:`MachineTrace` the
  simulator attaches when tracing is active, one round span per round class
  a posting call posts.  Guarantee:
  counters are byte-identical traced vs untraced, and the disabled guards
  cost under 2% of a paper-scale run (gated in CI).
* :mod:`repro.obs.metrics` -- counters/gauges/histograms a sweep
  campaign populates (``CampaignResult.metrics``).
* :mod:`repro.obs.export` -- Chrome trace-event JSON (Perfetto) and JSONL
  exporters plus the schema validator.
* :mod:`repro.obs.progress` -- the campaign heartbeat line.
* :mod:`repro.obs.log` -- the ``logging.getLogger("repro")`` hierarchy and
  the CLI's ``--log-level`` plumbing.
"""

from repro.obs.export import (
    chrome_trace_document,
    validate_chrome_trace,
    write_chrome_trace,
    write_event_log,
)
from repro.obs.log import LOG_LEVELS, configure_logging, get_logger
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.progress import CampaignProgress
from repro.obs.trace import (
    MachineTrace,
    Tracer,
    active_tracer,
    disable_tracing,
    enable_tracing,
    tracing,
)

__all__ = [
    "Tracer",
    "MachineTrace",
    "active_tracer",
    "enable_tracing",
    "disable_tracing",
    "tracing",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "chrome_trace_document",
    "write_chrome_trace",
    "write_event_log",
    "validate_chrome_trace",
    "CampaignProgress",
    "configure_logging",
    "get_logger",
    "LOG_LEVELS",
]
