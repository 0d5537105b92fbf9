"""Live progress surface for sweep campaigns.

:class:`CampaignProgress` is a ``progress(record, from_cache)`` callback for
:func:`repro.sweeps.runner.run_campaign`.  On a TTY it maintains a single
heartbeat line (carriage-return rewritten); on anything else -- CI logs,
pipes -- it prints a plain progress line at most every ``interval_s``
seconds, so logs stay readable without being silent for minutes.

The counts come from the records themselves: ``failed`` counts the freshly
executed ``"failed"`` records (cached failures count as ``cached``).  The
campaign's totals are printed by the final ``CampaignResult`` summary line.
"""

from __future__ import annotations

import sys
import time


def _format_eta(seconds: float) -> str:
    seconds = max(0, int(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"
    return f"{seconds // 60}m{seconds % 60:02d}s"


class CampaignProgress:
    """Heartbeat renderer: ``done/total ok=.. failed=.. eta=.. store=..``."""

    def __init__(self, total: int, store_path: str = "", stream=None,
                 interval_s: float | None = None) -> None:
        self.total = int(total)
        self.store_path = str(store_path)
        self.stream = stream if stream is not None else sys.stderr
        self.is_tty = bool(getattr(self.stream, "isatty", lambda: False)())
        # A TTY rewrites cheaply; plain streams get one line every 5s at most.
        self.interval_s = interval_s if interval_s is not None else (0.25 if self.is_tty else 5.0)
        self.done = 0
        self.ok = 0
        self.failed = 0
        self.cached = 0
        self._start = time.monotonic()
        self._last_emit: float | None = None  # None: nothing emitted yet
        self._open_line = False

    # -- the run_campaign callback ------------------------------------------
    def __call__(self, record: dict, from_cache: bool) -> None:
        self.done += 1
        if from_cache:
            self.cached += 1
        status_ok = record.get("status") == "ok"
        if status_ok:
            self.ok += 1
        elif not from_cache:
            self.failed += 1
        now = time.monotonic()
        if (self._last_emit is None
                or now - self._last_emit >= self.interval_s
                or self.done >= self.total):
            self._emit(now)

    def line(self) -> str:
        executed = self.done - self.cached
        elapsed = time.monotonic() - self._start
        parts = [
            f"{self.done}/{self.total}",
            f"ok={self.ok}",
            f"failed={self.failed}",
            f"cached={self.cached}",
        ]
        if 0 < self.done < self.total:
            # Rate from executed runs when any ran (cached hits are ~free).
            pace = elapsed / executed if executed else elapsed / self.done
            parts.append(f"eta={_format_eta(pace * (self.total - self.done))}")
        if self.store_path:
            parts.append(f"store={self.store_path}")
        return "campaign: " + " ".join(parts)

    def _emit(self, now: float) -> None:
        self._last_emit = now
        text = self.line()
        if self.is_tty:
            self.stream.write("\r\x1b[2K" + text)
            self._open_line = True
        else:
            self.stream.write(text + "\n")
        self.stream.flush()

    def close(self) -> None:
        """Finish the heartbeat (terminate the rewritten TTY line)."""
        if self.is_tty and self._open_line:
            self.stream.write("\r\x1b[2K" + self.line() + "\n")
            self._open_line = False
            self.stream.flush()
