"""The serving core: one accept loop and one per-connection loop for
every endpoint that speaks the wire protocol (DESIGN.md §5d).

:class:`WireServer` owns the listener, an accept thread and one serial
thread per connection::

    accept thread    fire("wire.accept") · TCP_NODELAY · spawn
    connection thread, one per client, strictly serial, burst by burst:
        FrameReader.read       one recv: every frame the client has queued
        → run by run           in order; ``id`` echoed on every reply
            role.run_length()  how many requests from here execute together
            role.handle()      a run of one
            role.handle_run()  a longer run, one outcome per request
        → role.settle()        once: what the replies reflect is durable
        → wire.send_frames     once, under a whole-burst deadline

A connection is one in-order statement stream.  A stop-and-wait client
makes bursts of one; a pipelining client's queued frames arrive with one
``recv`` and share one ``settle`` (on the database role: one log flush,
one fsync) and one ``sendall``.  What one ``recv`` returned bounds the
burst; frames beyond it wait in the kernel's socket buffers (TCP paces a
client that outruns the server — there is no user-space request queue to
grow).  Within a burst the role decides, from the requests themselves,
which consecutive ones execute as one run (the database role: a run of
autocommit row inserts on one table is one vectorized statement); the
core holds the single-flight gates of all of a run's stamps while it
executes and answers each request of it in order.

:class:`~repro.server.server.ReproServer` and
:class:`~repro.sharding.coordinator.ShardCoordinator` are *roles* of this
class.  A role supplies per-connection state (:meth:`open_connection` /
:meth:`close_connection`), its op dispatch (:meth:`handle`), which
requests execute together (:meth:`run_length` / :meth:`handle_run`;
by default none), its error cases (:meth:`error_reply`) and what must
happen before a reply may leave (:meth:`settle`); the failure semantics
of the protocol live here, once:

* a torn or undecodable frame, or an injected ``wire.recv`` fault, ends
  that connection after the requests before it were answered in order;
* replies that cannot be sent within ``send_timeout`` (a stalled
  reader) or whose send fails cut the connection instead of pinning its
  thread; the burst's replies are lost together and the client's
  same-stamp redelivery recovers them;
* an injected ``wire.accept`` fault sheds the connection at the door;
* a handler raising :class:`Tear` closes the connection *without
  replying* to that request — for outcomes an error reply would
  misreport — after the requests before it were answered;
* two copies of one stamped request (a redelivery racing the original)
  never execute concurrently;
* :meth:`stop_serving` drains under one shared deadline: the request or
  run in flight finishes and is answered, nothing queued behind it runs.
"""

from __future__ import annotations

import socket
import threading
import time
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from typing import Any, TypeVar

from ..errors import (
    DeadlockError,
    LockTimeoutError,
    ReproError,
    SerializationError,
    TransientFault,
)
from ..testing.faults import fire
from . import wire

_RETRYABLE = (DeadlockError, LockTimeoutError, SerializationError, TransientFault)

#: Counted here, once, for every role.
_CORE_COUNTERS = (
    "connections_total", "requests", "errors", "read_faults",
    "send_timeouts", "accept_faults",
)


class Overloaded(ReproError):
    """Admission control rejected the request; retry after the hint."""

    def __init__(self, message: str, retry_after: float = 0.05) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class Tear(Exception):
    """Close the client connection *without replying*: the request may
    have committed somewhere, so an error reply (which promises "not
    committed") would lie.  The client's redelivery disambiguates."""


class Counters:
    """Thread-safe named counters exposed by the ``stats`` op."""

    def __init__(self, *names: str) -> None:
        self._mu = threading.Lock()
        self._values = dict.fromkeys(names, 0)

    def bump(self, name: str, by: int = 1) -> None:
        with self._mu:
            self._values[name] += by

    def snapshot(self) -> dict[str, int]:
        with self._mu:
            return dict(self._values)


def error_response(exc: Exception, rolled_back: bool = False) -> dict[str, Any]:
    """The generic error reply: deadlock victims, lock timeouts,
    injected transient faults and admission rejections are retryable."""
    response: dict[str, Any] = {
        "ok": False,
        "error": str(exc),
        "error_type": type(exc).__name__,
        "retryable": isinstance(exc, (*_RETRYABLE, Overloaded)),
        "rolled_back": rolled_back,
    }
    if isinstance(exc, Overloaded):
        response["retry_after"] = exc.retry_after
    return response


def stamp_of(request: Mapping[str, Any]) -> tuple[str, int] | None:
    """The request's exactly-once stamp ``(client, req)``, if it has one."""
    client, req = request.get("client"), request.get("req")
    if isinstance(client, str) and isinstance(req, int):
        return (client, req)
    return None


def _shut(sock: socket.socket, how: int) -> None:
    try:
        sock.shutdown(how)
    except OSError:
        pass  # already closed by its own thread, or never connected


_S = TypeVar("_S", bound="WireServer")


class WireServer:
    """Listener, accept thread and per-connection threads; see the
    module docstring.  Subclasses are the roles."""

    #: Names the role in thread names and lifecycle errors.
    role = "server"

    def __init__(
        self, host: str, port: int, send_timeout: float, *counters: str
    ) -> None:
        self.host = host
        self._requested_port = port
        self.send_timeout = send_timeout
        self.stats = Counters(*_CORE_COUNTERS, *counters)
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conns: dict[threading.Thread, socket.socket] = {}
        self._conns_mu = threading.Lock()
        self._stopping = threading.Event()
        #: Single-flight gate per request stamp: (lock, refcount),
        #: pruned at zero.
        self._stamp_gate: dict[tuple[str, int], list[Any]] = {}
        self._stamp_gate_mu = threading.Lock()

    # ------------------------------------------------------------------
    # What a role supplies

    def open_connection(self, conn_id: int) -> Any:
        """Per-connection state, built on the connection's own thread."""
        raise NotImplementedError

    def close_connection(self, state: Any) -> None:
        """Release *state* (the connection is gone or going)."""

    def handle(self, state: Any, request: dict[str, Any]) -> dict[str, Any]:
        """Execute one request.  May raise :class:`Tear`; any other
        exception becomes :meth:`error_reply`'s response."""
        raise NotImplementedError

    def run_length(
        self, state: Any, requests: list[dict[str, Any]], start: int
    ) -> int:
        """How many requests from ``requests[start]`` on execute together
        through :meth:`handle_run`.  At least 1; a run of one goes
        through :meth:`handle`, which every role but one keeps to."""
        return 1

    def handle_run(
        self, state: Any, run: list[dict[str, Any]]
    ) -> list[dict[str, Any] | Exception]:
        """Execute a run of two or more requests (:meth:`run_length`).
        One outcome per request, in order: its response, or the
        exception that becomes its :meth:`error_reply`."""
        raise NotImplementedError

    def error_reply(self, state: Any, exc: Exception) -> dict[str, Any]:
        return error_response(exc)

    def settle(self, state: Any) -> None:
        """Called once per burst, after its requests ran and before any
        of their replies is written: return only when everything those
        replies reflect is durable.  A role with nothing volatile
        behind its replies keeps this no-op."""

    # ------------------------------------------------------------------
    # Lifecycle

    @property
    def port(self) -> int:
        if self._listener is None:
            raise ReproError(f"{self.role} is not started")
        return self._listener.getsockname()[1]

    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def start(self: _S) -> _S:
        """Bind, listen and serve on background threads."""
        if self._listener is not None:
            raise ReproError(f"{self.role} already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.host, self._requested_port))
            listener.listen(128)
        except OSError:
            listener.close()
            raise
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, args=(listener,),
            name=f"repro-{self.role}-accept", daemon=True,
        )
        self._accept_thread.start()
        return self

    def stop_serving(self, timeout: float) -> None:
        """Stop accepting and drain every connection under one shared
        deadline.  An idle connection ends at once (its blocked ``recv``
        sees EOF); one with a request in flight sends that reply first —
        only the read half is shut — and executes nothing queued behind
        it.  Threads still busy at the deadline are cut off and left to
        finish on their own."""
        listener, accept_thread = self._listener, self._accept_thread
        assert listener is not None and accept_thread is not None
        deadline = time.monotonic() + timeout
        self._stopping.set()
        # close() alone does not wake a blocked accept() on Linux.
        _shut(listener, socket.SHUT_RDWR)
        accept_thread.join(max(0.0, deadline - time.monotonic()))
        with self._conns_mu:
            conns = list(self._conns.items())
        for __, conn in conns:
            _shut(conn, socket.SHUT_RD)
        for thread, __ in conns:
            thread.join(max(0.0, deadline - time.monotonic()))
        for thread, conn in conns:
            if thread.is_alive():
                _shut(conn, socket.SHUT_RDWR)
        # Closed last: requests in flight may still ask for our port.
        listener.close()
        self._listener = None

    def __enter__(self: _S) -> _S:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    def shutdown(self, timeout: float = 10.0) -> Any:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The only accept loop and the only connection loop

    def _accept_loop(self, listener: socket.socket) -> None:
        conn_id = 0
        while True:
            try:
                conn, __ = listener.accept()
            except OSError:
                return  # the listener was shut down
            if self._stopping.is_set():
                conn.close()
                return
            try:
                fire("wire.accept")
            except ReproError:
                # Injected accept fault: shed the connection at the door.
                self.stats.bump("accept_faults")
                conn.close()
                continue
            # Replies are small and a pipelining client has several
            # outstanding: Nagle would hold the second one for an ACK.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.stats.bump("connections_total")
            conn_id += 1
            thread = threading.Thread(
                target=self._serve_connection, args=(conn, conn_id),
                name=f"repro-{self.role}-conn-{conn_id}", daemon=True,
            )
            with self._conns_mu:
                self._conns[thread] = conn
            thread.start()

    @contextmanager
    def _single_flight(self, run: list[dict[str, Any]]) -> Iterator[None]:
        """Serialise copies of the same stamped request — here, of every
        stamped request in *run*.

        A redelivery (client reconnected, same stamp) can arrive while
        the first copy is still executing — in a lock wait, an fsync, a
        patient shard link.  It must wait for that copy rather than race
        it: run concurrently, both would find no recorded outcome and
        both would commit (or one would answer a retryable error while
        the other goes on to commit, inviting a fresh-stamp retry no
        ledger can dedupe).  Once the copy ahead finishes, the waiter's
        replay lookup sees its outcome.  Distinct stamps never share a
        lock, so this serialises nothing but duplicates.

        A run holds the gates of all its stamps, taken in sorted order:
        two runs that share stamps (the same pipeline redelivered on a
        second connection) then wait for each other, never in a cycle."""
        keys = sorted(set(filter(None, map(stamp_of, run))))
        if not keys:
            yield
            return
        with self._stamp_gate_mu:
            entries = []
            for key in keys:
                entry = self._stamp_gate.get(key)
                if entry is None:
                    entry = self._stamp_gate[key] = [threading.Lock(), 0]
                entry[1] += 1
                entries.append(entry)
        for entry in entries:
            entry[0].acquire()
        try:
            yield
        finally:
            for entry in entries:
                entry[0].release()
            with self._stamp_gate_mu:
                for key, entry in zip(keys, entries):
                    entry[1] -= 1
                    if entry[1] == 0:
                        self._stamp_gate.pop(key, None)

    def _serve_connection(self, conn: socket.socket, conn_id: int) -> None:
        state = None
        try:
            state = self.open_connection(conn_id)
            reader = wire.FrameReader()
            serving = True
            while serving:
                replies: list[dict[str, Any]] = []
                serving = self._run_burst(state, reader, conn, replies)
                if not replies:
                    continue
                # No reply leaves before the role has made durable
                # whatever it reflects — this connection's commits and
                # any other's that a read or a ledger replay saw.
                self.settle(state)
                # Replies must not be torn, but a stalled reader must not
                # pin this thread either: the timeout bounds the whole
                # sendall, not each syscall, so trickling does not help.
                conn.settimeout(self.send_timeout)
                try:
                    wire.send_frames(conn, replies)
                except socket.timeout:
                    self.stats.bump("send_timeouts")
                    break
                except (ReproError, OSError):
                    break
                conn.settimeout(None)
        finally:
            try:
                if state is not None:
                    self.close_connection(state)
            finally:
                conn.close()
                with self._conns_mu:
                    self._conns.pop(threading.current_thread(), None)

    def _run_burst(
        self,
        state: Any,
        reader: wire.FrameReader,
        conn: socket.socket,
        replies: list[dict[str, Any]],
    ) -> bool:
        """Wait for a request, then execute it and every complete one the
        same ``recv`` brought in behind it, in order and run by run,
        queueing their replies on *replies*.  False when the connection
        is to end once those are sent."""
        requests: list[dict[str, Any]] = []
        serving = True
        while True:
            try:
                request = reader.read(conn, wait=not requests)
            except (ReproError, OSError):
                # A torn frame or injected wire fault ends intake for
                # this connection only, after the frames before it ran;
                # redelivery recovers.
                self.stats.bump("read_faults")
                serving = False
                break
            if request is None:
                # EOF while waiting ends the connection; an empty buffer
                # only ends the burst.
                serving = bool(requests)
                break
            requests.append(request)
        start, count = 0, len(requests)
        while start < count:
            # Re-checked before every run: one queued behind the run in
            # flight at shutdown is discarded, not run.
            if self._stopping.is_set():
                return False
            length = 1
            if start + 1 < count:
                length = self.run_length(state, requests, start)
            run = requests[start:start + length]
            start += length
            self.stats.bump("requests", length)
            try:
                with self._single_flight(run):
                    outcomes = (
                        self.handle_run(state, run) if length > 1
                        else [self._outcome(state, run[0])]
                    )
            except Tear:
                return False
            for request, outcome in zip(run, outcomes):
                if isinstance(outcome, Exception):
                    self.stats.bump("errors")
                    outcome = self.error_reply(state, outcome)
                if "id" in request:
                    # Copy before tagging: the dict may be a ledger-cached
                    # reply, and the stamp's recorded result must not
                    # grow connection-local fields.
                    outcome = {**outcome, "id": request["id"]}
                replies.append(outcome)
        return serving

    def _outcome(
        self, state: Any, request: dict[str, Any]
    ) -> dict[str, Any] | Exception:
        """:meth:`handle`, with any exception but :class:`Tear` returned
        as the request's outcome instead of raised."""
        try:
            return self.handle(state, request)
        except Tear:
            raise
        except Exception as exc:  # noqa: BLE001 - boundary
            return exc
