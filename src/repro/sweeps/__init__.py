"""Sweep campaign engine: parallel scenario sweeps with a resumable store.

This package is the layer between "one harness run" and "a paper figure".
The paper's headline evidence (Table 4, Figures 8-11) comes from campaigns of
hundreds of (m, n, k, p, S) points across five algorithms; here such a
campaign is

1. declared as a :class:`~repro.sweeps.spec.SweepSpec` (shape families x
   scaling regimes x core counts, plus explicit scenario points),
2. expanded into deterministic :class:`~repro.sweeps.spec.RunRequest` lists,
3. executed by :func:`~repro.sweeps.runner.run_campaign` in chunks of runs
   -- in process at ``jobs=1``, over a stdlib process pool at ``jobs>1`` --
   with every run's exception captured as a ``"failed"`` record, and
4. persisted in a content-addressed
   :class:`~repro.sweeps.store.ResultStore`, then priced by the time model
   and joined with Table 3's I/O formulas by
   :func:`~repro.sweeps.aggregate.tidy_rows`.

The RunKey hashing contract
---------------------------
Every run is addressed by :func:`~repro.sweeps.store.run_key`: the SHA-256
hex digest of the canonical JSON encoding (sorted keys, no whitespace) of
exactly these code-relevant parameters::

    {"key_version": KEY_VERSION,
     "algorithm":  <harness registry name>,
     "scenario":   {"name", "shape": {"m", "n", "k", "family"},
                    "p", "memory_words", "regime"},
     "mode":       <plane | volume>,
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
* **Execution policy never participates.**  The worker count, the chunk a
  run went in and the shard count (accepted and ignored) address the same
  key as a serial run: a record describes *what was measured*, never *how it
  was scheduled*.  This is what makes a 2-job campaign store byte-identical
  records to a serial one, and why a re-executed run (``resume=False``,
  ``retry_failures=True``) overwrites rather than forks its cache entry.
  The one deliberate exception is a ``WorkerCrash`` record: which runs a
  dead worker took with it depends on the scheduling, so such a record is
  forensic evidence, not a measurement, and ``retry_failures=True``
  re-executes it.
"""

from repro.sweeps.aggregate import (
    campaign_table,
    rows_to_json,
    scenario_summary_table,
    tidy_rows,
)
from repro.sweeps.runner import METRICS_SIDECAR, CampaignResult, run_campaign
from repro.sweeps.spec import RunRequest, SweepSpec, spec_from_scenarios
from repro.sweeps.store import KEY_VERSION, ResultStore, StoreVerifyReport, run_key

__all__ = [
    "CampaignResult",
    "KEY_VERSION",
    "METRICS_SIDECAR",
    "ResultStore",
    "RunRequest",
    "StoreVerifyReport",
    "SweepSpec",
    "campaign_table",
    "rows_to_json",
    "run_campaign",
    "run_key",
    "scenario_summary_table",
    "spec_from_scenarios",
    "tidy_rows",
]
