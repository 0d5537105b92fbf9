"""Sweep campaign engine: parallel scenario sweeps with a resumable store.

This package is the layer between "one harness run" and "a paper figure".
The paper's headline evidence (Table 4, Figures 8-11) comes from campaigns of
hundreds of (m, n, k, p, S) points across five algorithms; here such a
campaign is

1. declared as a :class:`~repro.sweeps.spec.SweepSpec` (shape families x
   scaling regimes x core counts, plus explicit scenario points),
2. expanded into deterministic :class:`~repro.sweeps.spec.RunRequest` lists,
3. executed by :func:`~repro.sweeps.runner.run_campaign` -- in process or
   over supervised worker processes, through one retry loop -- with per-run
   failure capture, and
4. persisted in a content-addressed
   :class:`~repro.sweeps.store.ResultStore`, then joined with the analytic
   cost models by :func:`~repro.sweeps.aggregate.tidy_rows`.

The RunKey hashing contract
---------------------------
Every run is addressed by :func:`~repro.sweeps.store.run_key`: the SHA-256
hex digest of the canonical JSON encoding (sorted keys, no whitespace) of
exactly these code-relevant parameters::

    {"key_version": KEY_VERSION,
     "algorithm":  <harness registry name>,
     "scenario":   {"name", "shape": {"m", "n", "k", "family"},
                    "p", "memory_words", "regime"},
     "mode":       <legacy | zerocopy | plane | volume>,
     "seed":       <input-matrix seed>,
     "verify":     <bool>,
     "plane_dtype": <float64 | float32>}

Consequences:

* Keys are **stable across processes and machines** -- no use of Python's
  randomized ``hash()`` -- so a store written by one campaign resumes in any
  later one (interrupted campaigns skip every cached key on rerun).
* Keys are **content addresses**: two requests agreeing on every field above
  share one execution, while changing any field (including the seed or the
  transport mode) yields a distinct key.
* Measured values are deliberately *not* part of the key; when a code change
  alters what the simulator would measure for the same parameters, bump
  :data:`~repro.sweeps.store.KEY_VERSION` (or delete the store directory) to
  invalidate every cached record at once.
* **Execution policy never participates.**  Attempt counts, retry/timeout
  settings, worker counts and injected faults (chaos testing,
  :mod:`repro.sweeps.faults`) address the same key as a clean first-attempt
  run: a record describes *what was measured*, never *how hard it was to
  measure it*.  This is what makes a faulted campaign converge to
  byte-identical ok-records vs. a fault-free one (the chaos invariant), and
  why retried runs overwrite rather than fork their cache entries.  The one
  deliberate exception is the *failure taxonomy* on quarantined ``"failed"``
  records (attempts / duration / exit signal / traceback tail): failures are
  forensic evidence, not measurements, and they are re-executed -- not
  trusted -- under ``retry_failures=True``.
"""

from repro.sweeps.aggregate import (
    campaign_table,
    rows_to_json,
    runs_from_records,
    scenario_summary_table,
    tidy_rows,
)
from repro.sweeps.faults import FaultPlan, TransientFault
from repro.sweeps.runner import (
    METRICS_SIDECAR,
    NO_RETRY,
    CampaignResult,
    RetryPolicy,
    predicted_working_set_words,
    run_campaign,
)
from repro.sweeps.spec import RunRequest, SweepSpec, spec_from_scenarios
from repro.sweeps.store import KEY_VERSION, ResultStore, StoreVerifyReport, run_key

__all__ = [
    "CampaignResult",
    "FaultPlan",
    "KEY_VERSION",
    "METRICS_SIDECAR",
    "NO_RETRY",
    "ResultStore",
    "RetryPolicy",
    "RunRequest",
    "StoreVerifyReport",
    "SweepSpec",
    "TransientFault",
    "campaign_table",
    "predicted_working_set_words",
    "rows_to_json",
    "run_campaign",
    "run_key",
    "runs_from_records",
    "scenario_summary_table",
    "spec_from_scenarios",
    "tidy_rows",
]
