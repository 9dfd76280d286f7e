"""Worker processes for ``ShardedContext(workers=N)``.

Each worker process hosts one shard: a
:class:`~repro.runtime.shard.ShardHost` with one ``Simulator`` heap and
its contiguous rank block of zones. It serves the coordinator's
commands (:func:`~repro.runtime.shard.serve`) off a duplex pipe, so all
N heaps advance *concurrently* between conservative epoch barriers —
with the same tap, delivery and injection code the in-process executor
runs, which is what keeps the merged trace byte-identical.

The coordinator never blocks forever on a dead worker: every receive
polls the pipe with the process's liveness and a timeout, and a worker
that dies, hangs or reports a traceback raises :class:`ShardWorkerError`
after terminating the whole fleet.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback

from repro.core.errors import ReproError
from repro.runtime.shard import ShardedContext, ShardHost, serve

#: Seconds the coordinator waits for one worker reply.
WORKER_TIMEOUT_S = 600.0

#: The name the end-to-end benchmark imports; in-repo code constructs
#: ``ShardedContext(workers=N)``.
ParallelShardedContext = ShardedContext


class ShardWorkerError(ReproError):
    """A shard worker process died, timed out or raised; the run is
    unrecoverable and every sibling worker has been terminated."""


class WorkerFleet:
    """The coordinator's pipes to its worker processes, one per shard.

    *hosts* holds each worker's ``ShardHost`` ``(args, kwargs)``. The
    builder and finalizer inside must be module-level callables:
    workers fork where the platform allows (spawn elsewhere), and spawn
    pickles them.
    """

    def __init__(self, hosts: list[tuple[tuple, dict]]):
        methods = multiprocessing.get_all_start_methods()
        mp = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        self._procs: list = []
        self._conns: list = []
        self._awaiting = "start-up"
        try:
            for index, (args, kwargs) in enumerate(hosts):
                parent_conn, child_conn = mp.Pipe()
                proc = mp.Process(
                    target=worker_main, args=(child_conn, args, kwargs),
                    name=f"repro-shard-{index}", daemon=True)
                proc.start()
                child_conn.close()
                self._procs.append(proc)
                self._conns.append(parent_conn)
        except BaseException:
            self.abort()
            raise

    def exchange(self, messages: list[tuple] | None = None) -> list:
        """Send one command per worker — all of them before any reply,
        so the workers run concurrently — and return their replies in
        worker order. Without *messages*, collect the start-up replies.
        """
        if messages is not None:
            self._awaiting = messages[0][0]
            for index, msg in enumerate(messages):
                try:
                    self._conns[index].send(msg)
                except (BrokenPipeError, OSError) as exc:
                    self._fail(f"pipe to shard worker {index} broke on "
                               f"send: {exc}")
        return [self._recv(index) for index in range(len(self._conns))]

    def _recv(self, index: int):
        conn, proc = self._conns[index], self._procs[index]
        deadline = time.monotonic() + WORKER_TIMEOUT_S
        try:
            while not conn.poll(0.05):
                if not proc.is_alive():
                    # Drain a final message (an error report may have
                    # been flushed right before exit).
                    if conn.poll(0.2):
                        break
                    self._fail(
                        f"shard worker {index} died with exit code "
                        f"{proc.exitcode} before the {self._awaiting!r} "
                        "reply")
                if time.monotonic() > deadline:
                    self._fail(
                        f"shard worker {index} did not reply within "
                        f"{WORKER_TIMEOUT_S}s (awaiting "
                        f"{self._awaiting!r})")
            reply = conn.recv()
        except (EOFError, OSError) as exc:
            self._fail(f"pipe to shard worker {index} broke (awaiting "
                       f"{self._awaiting!r}): {exc}")
        if isinstance(reply, str):  # a worker traceback
            self._fail(f"shard worker {index} raised:\n{reply}")
        return reply

    def _fail(self, message: str) -> None:
        self.abort()
        raise ShardWorkerError(message) from None

    def close(self) -> None:
        """Ask every worker to exit, then reap them."""
        for conn in self._conns:
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for proc, conn in zip(self._procs, self._conns):
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - slow exit
                proc.terminate()
                proc.join(timeout=2.0)
            conn.close()

    def abort(self) -> None:
        """Terminate every worker after a failure; idempotent."""
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc, conn in zip(self._procs, self._conns):
            proc.join(timeout=2.0)
            conn.close()


def worker_main(conn, args: tuple, kwargs: dict) -> None:
    """Worker process entry point: build the host, reply flush-shaped
    (no injections; build-time patterns, records and metrics), then
    serve commands until ``close``.

    Every error — build errors included — is sent back as its traceback
    string before exit, so the coordinator raises instead of hanging at
    the barrier (a worker killed outright is caught by its liveness).
    """
    try:
        host = ShardHost(*args, **kwargs)
        conn.send(({}, host.pattern_report(), host.stream()))
        while True:
            msg = conn.recv()
            if msg[0] == "close":
                return
            conn.send(serve(host, msg))
    except EOFError:  # coordinator went away; nothing left to report
        return
    except Exception:
        try:
            conn.send(traceback.format_exc())
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()
