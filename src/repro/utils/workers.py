"""The one worker-process primitive: spawn, duplex pipe, wait, death.

Both process pools in the tree -- the campaign supervisor
(:mod:`repro.sweeps.runner`) and the plane engine's shard pool
(:mod:`repro.machine.shard`) -- are built on the two names here.  A
:class:`Worker` is one child process plus the parent's end of its duplex
pipe; :func:`wait_any` multiplexes any number of them and reports, per ready
worker, either the message it sent or the :class:`WorkerDied` describing how
it ended.  What a worker *runs*, what its messages mean, and what a death
costs (a retry, a poisoned pool) stay with the caller.
"""

from __future__ import annotations

from multiprocessing import connection
from typing import Callable, Iterable, Iterator


class WorkerDied(RuntimeError):
    """A worker process ended (crashed, was killed) without replying."""

    def __init__(self, exitcode: int | None) -> None:
        super().__init__(f"worker process died with exit code {exitcode}")
        #: The process's exit code (negative: killed by that signal number).
        self.exitcode = exitcode
        #: The signal that killed it (``9`` for SIGKILL / OOM), else ``None``.
        self.signal = -exitcode if exitcode is not None and exitcode < 0 else None


class Worker:
    """One daemon child process and the parent's end of its duplex pipe.

    The child runs ``target(conn, *args)`` on the caller-supplied
    multiprocessing ``context`` (so the caller picks the start method);
    ``conn`` is the child's end of the pipe.
    """

    def __init__(self, context, target: Callable, args: tuple = (), name: str | None = None) -> None:
        self._context = context
        self._target = target
        self._args = tuple(args)
        self._name = name
        self._spawn()

    def _spawn(self) -> None:
        self.conn, child_conn = self._context.Pipe()
        self.process = self._context.Process(
            target=self._target, args=(child_conn, *self._args), name=self._name, daemon=True,
        )
        self.process.start()
        child_conn.close()

    def send(self, message) -> None:
        """Send ``message``; a broken pipe raises :class:`WorkerDied`."""
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError):
            raise self.died() from None

    def died(self) -> WorkerDied:
        """Reap the (dead or dying) process and describe its death."""
        self.process.join(timeout=1.0)
        return WorkerDied(self.process.exitcode)

    def kill(self) -> None:
        """SIGKILL the process if it still runs, reap it and close the pipe."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join()
        self.conn.close()

    def respawn(self) -> None:
        """Replace the process (killed first if alive) with a fresh one."""
        self.kill()
        self._spawn()

    def stop(self, message, timeout: float) -> None:
        """Polite shutdown: send ``message``, allow ``timeout`` seconds to exit, then kill."""
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError):
            pass  # already gone; kill() below reaps it
        self.process.join(timeout)
        self.kill()


def wait_any(workers: Iterable[Worker], timeout: float | None = None) -> Iterator[tuple[Worker, object]]:
    """Block until some worker replied or died (or ``timeout`` seconds passed).

    Yields ``(worker, reply)`` once per ready worker, where ``reply`` is the
    message it sent or a :class:`WorkerDied`.  Pipes *and* process sentinels
    are watched, so a SIGKILLed worker is reported at once instead of hanging
    the caller; a reply already buffered in the pipe always wins over the
    sentinel (the worker answered, then exited).
    """
    by_handle: dict = {}
    for worker in workers:
        by_handle[worker.conn] = worker
        by_handle[worker.process.sentinel] = worker
    reported = set()
    for handle in connection.wait(list(by_handle), timeout):
        worker = by_handle[handle]
        if worker in reported:  # pipe and sentinel both ready: one report
            continue
        reported.add(worker)
        try:
            reply = worker.conn.recv() if worker.conn.poll() else worker.died()
        except (EOFError, OSError):
            reply = worker.died()
        yield worker, reply
