"""The asyncio intersection server.

One server owns a :class:`~repro.serve.registry.SessionRegistry` and a
:class:`~repro.serve.coalescer.BatchCoalescer`; connections speak the
length-prefixed JSON frame protocol of :mod:`repro.serve.wire`.
Connections are **pipelined**: a client may write many requests before
reading replies; each request is answered exactly once, correlated by the
echoed ``id``.

Backpressure is two bounded counts, checked at admission:

* the **global** bound (``max_pending_global``) caps operations accepted
  but not yet answered across the whole server;
* the **per-session** bound (``max_pending_per_session``) caps any one
  session's queue so a single hot session cannot starve the rest.

An operation over either bound is **shed gracefully**: the client gets a
typed ``overloaded`` reply (with ``scope`` = ``"server"`` or
``"session"``) immediately, the shed is counted per session and globally,
and nothing is ever silently dropped.  Admitted operations are never
shed -- once queued, they are answered.

Admission also validates an operation's sets against its session's
``(n, k)``: a bad set gets a typed ``invalid-input`` reply at once, like
a shed op, and the coalescer only ever queues valid frozensets.
"""

from __future__ import annotations

import asyncio
import os
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.obs import metrics as _metrics
from repro.protocols.base import InvalidInput, validate_set_pair
from repro.serve.coalescer import BatchCoalescer, PendingOp
from repro.serve.registry import SessionRegistry
from repro.serve.wire import (
    MAX_FRAME_BYTES,
    FrameError,
    FrameReader,
    ServeError,
    encode_frame,
    error_reply,
)
from repro.session import OP_KINDS

__all__ = ["ServeConfig", "IntersectionServer", "SERVER_TRANSPORTS"]


#: Listener transports the server speaks.  Both carry the identical wire
#: protocol (length-prefixed JSON frames) and typed-error taxonomy; the
#: only difference is the socket family underneath.
SERVER_TRANSPORTS = ("tcp", "uds")


@dataclass(frozen=True)
class ServeConfig:
    """Server knobs; the defaults are the documented production posture."""

    host: str = "127.0.0.1"
    #: 0 means "pick a free port" (the chosen one is in ``server.address``).
    port: int = 0
    #: Listener transport: ``tcp`` (host/port) or ``uds`` (a Unix-domain
    #: socket at ``uds_path``).  The wire protocol and error taxonomy are
    #: identical on both; connections never know which family carried them.
    transport: str = "tcp"
    #: Filesystem path for the ``uds`` listener (required for that
    #: transport; a stale socket file at the path is replaced).
    uds_path: Optional[str] = None
    #: Seed lineage root for sessions opened without an explicit seed.
    master_seed: int = 0
    #: Cross-session batch coalescing (the perf core); disabling it keeps
    #: behaviour bit-identical and is only for baselines and bisection.
    coalesce: bool = True
    #: Scheduling tick: how long the coalescer waits after the first
    #: pending operation's admission for concurrent sessions' operations
    #: to land.  It counts from that admission, not from when the drain
    #: task next runs: time spent admitting a burst is part of the tick.
    tick_s: float = 0.002
    #: Global bound on accepted-but-unanswered operations.
    max_pending_global: int = 1024
    #: Per-session bound (keeps one hot session from starving the rest).
    max_pending_per_session: int = 64
    max_frame_bytes: int = MAX_FRAME_BYTES

    def __post_init__(self) -> None:
        if self.transport not in SERVER_TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r} "
                f"(know: {', '.join(SERVER_TRANSPORTS)})"
            )
        if self.transport == "uds" and not self.uds_path:
            raise ValueError("the 'uds' transport requires uds_path")


def _require_list(value: Any, name: str) -> list:
    # Shape check only: a non-array is a malformed request (``bad-request``);
    # the members are checked next, by admission's validate_set_pair, and a
    # bad member is the client's input fault (``invalid-input``).
    if not isinstance(value, list):
        raise ServeError(
            "bad-request", f"{name!r} must be a JSON array of integers"
        )
    return value


def _json_value(kind: str, value: Any) -> Any:
    """The kind-specific answer, JSON-ready."""
    if kind == "intersect":
        return sorted(value)
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    return value


class IntersectionServer:
    """An asyncio server multiplexing many intersection sessions."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.registry = SessionRegistry(self.config.master_seed)
        self.coalescer = BatchCoalescer(
            self.registry,
            coalesce=self.config.coalesce,
            tick_s=self.config.tick_s,
        )
        self.shed_total = 0
        self._server: Optional[asyncio.base_events.Server] = None
        self._closing = False
        #: Live connection handlers, each with the callable that ends its
        #: connection's reads.
        self._connections: Dict["asyncio.Task", Callable[[], None]] = {}

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        await self.coalescer.start()
        if self.config.transport == "uds":
            path = self.config.uds_path
            assert path is not None  # __post_init__ enforced
            # A stale socket file from a crashed predecessor would make
            # the bind fail; replacing it is the standard UDS posture.
            with suppress(FileNotFoundError):
                os.unlink(path)
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (resolves ``port=0``; TCP only)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        if self.config.transport != "tcp":
            raise RuntimeError(
                f"transport {self.config.transport!r} has no TCP address; "
                f"use endpoint"
            )
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    @property
    def endpoint(self) -> Tuple[str, Any]:
        """Transport-tagged bound endpoint: ``("tcp", (host, port))`` or
        ``("uds", path)`` -- the value a client needs to connect."""
        if self._server is None:
            raise RuntimeError("server is not started")
        if self.config.transport == "uds":
            return "uds", self.config.uds_path
        return "tcp", self.address

    async def stop(self) -> None:
        """Stop listening, answer every admitted op, then stop draining.

        Each connection's reads end as at a client's EOF, and its handler
        is awaited while the coalescer still runs, so every op already
        admitted gets its result.  (``wait_closed()`` cannot be relied on
        for this: on Python 3.11, ``close()`` drops the listener's sockets
        and ``wait_closed()`` then returns at once.)
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            for end_reads in self._connections.values():
                end_reads()
            while self._connections:
                await asyncio.gather(*self._connections, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        await self.coalescer.stop()
        if self.config.transport == "uds" and self.config.uds_path:
            with suppress(FileNotFoundError):
                os.unlink(self.config.uds_path)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    def info_payload(self) -> Dict[str, Any]:
        """Server-wide counters (the ``info`` reply body)."""
        return {
            "sessions": len(self.registry),
            "pending": self.coalescer.pending,
            "shed": self.shed_total,
            "coalesce": self.config.coalesce,
            "coalescer": self.coalescer.stats.as_dict(),
            "fingerprint": self.registry.fingerprint(),
        }

    def metrics_payload(self) -> Dict[str, Any]:
        """Live metrics (the ``metrics`` reply body): the queue depth, the
        shed count and the metrics-registry snapshot, which holds every
        hot cache's hits, misses and ``currsize``."""
        return {
            "pending": self.coalescer.pending,
            "shed": self.shed_total,
            "snapshot": _metrics.snapshot(include_hotcache=True),
        }

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        def end_reads() -> None:
            # Paused first: data fed to the reader after its EOF is an error.
            writer.transport.pause_reading()
            reader.feed_eof()

        task = asyncio.current_task()
        task.add_done_callback(self._connections.pop)
        self._connections[task] = end_reads
        if self._closing:
            end_reads()
        frames = FrameReader(reader, max_bytes=self.config.max_frame_bytes)
        # All replies -- control and operation -- are encoded once and go
        # through one queue drained by one writer task, so a burst of
        # completions costs one drain, not one task and one flush each.
        out_queue: "asyncio.Queue[bytes]" = asyncio.Queue()
        futures: Set["asyncio.Future"] = set()

        def enqueue(reply: Dict[str, Any]) -> None:
            out_queue.put_nowait(encode_frame(reply))

        async def writer_loop() -> None:
            closed = False
            while not closed:
                frame = await out_queue.get()
                if writer.is_closing():
                    # The client reset the connection: its replies are
                    # lost, and writing them to the dead transport would
                    # only log a warning per write.
                    return
                wrote = False
                while True:
                    if frame == b"":
                        closed = True
                    else:
                        writer.write(frame)
                        wrote = True
                    try:
                        frame = out_queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                if wrote:
                    try:
                        await writer.drain()
                    except (ConnectionError, OSError):
                        # The client went away; operations already admitted
                        # still execute and bill -- only replies are lost.
                        return

        writer_task = asyncio.get_running_loop().create_task(writer_loop())
        try:
            while True:
                try:
                    request = await frames.next()
                except FrameError as exc:
                    # The transport contract is broken; one typed reply,
                    # then the connection is unusable.
                    enqueue(error_reply("bad-frame", str(exc)))
                    break
                except ConnectionError:
                    # A reset (a client that exited with replies unread) is
                    # EOF: the client has gone, its admitted ops still run.
                    break
                if request is None:
                    break
                request_id = request.get("id")
                if request_id is not None and not isinstance(request_id, int):
                    enqueue(
                        error_reply("bad-request", "'id' must be an integer")
                    )
                    continue
                op = request.get("op")
                if op in OP_KINDS:
                    # Pipelined: admission is synchronous (so shed replies
                    # are immediate and bounds exact); the answer arrives
                    # via the future's completion callback.
                    try:
                        future = self._admit(op, request)
                    except ServeError as exc:
                        enqueue(exc.reply(request_id))
                        continue
                    futures.add(future)
                    future.add_done_callback(
                        self._reply_callback(
                            op, request_id, enqueue, futures.discard
                        )
                    )
                    continue
                try:
                    reply = self._handle_control(op, request)
                except ServeError as exc:
                    enqueue(exc.reply(request_id))
                    continue
                if request_id is not None:
                    reply["id"] = request_id
                enqueue(reply)
                if op == "shutdown":
                    break
        finally:
            if futures:
                # Admitted operations are answered even if the client has
                # stopped sending (EOF is not cancellation).
                await asyncio.gather(*futures, return_exceptions=True)
            out_queue.put_nowait(b"")
            await writer_task
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _admit(self, op: str, request: Dict[str, Any]) -> "asyncio.Future":
        """Admission control: bound checks, then input validation, then
        queue for the next tick.

        A shed op pays no validation.  A bad set is answered at once with
        ``invalid-input``, like a shed op: it consumes no operation index
        and never enters the queue.  Validating here rather than in the
        tick overlaps the tick's wait, and the queued frozensets are what
        every execution path runs on.
        """
        if self._closing:
            raise ServeError("shutting-down", "server is stopping")
        key = request.get("session")
        if not isinstance(key, str):
            raise ServeError("bad-request", "'session' must be a string key")
        entry = self.registry.get(key)
        if self.coalescer.pending >= self.config.max_pending_global:
            self.shed_total += 1
            entry.shed += 1
            _metrics.counter("serve.shed").inc()
            raise ServeError(
                "overloaded",
                f"server queue full ({self.config.max_pending_global} pending)",
                scope="server",
            )
        if entry.pending >= self.config.max_pending_per_session:
            self.shed_total += 1
            entry.shed += 1
            _metrics.counter("serve.shed").inc()
            raise ServeError(
                "overloaded",
                f"session {key!r} queue full "
                f"({self.config.max_pending_per_session} pending)",
                scope="session",
            )
        session = entry.session
        try:
            alice, bob = validate_set_pair(
                _require_list(request.get("alice"), "alice"),
                _require_list(request.get("bob"), "bob"),
                session.universe_size,
                session.max_set_size,
            )
        except InvalidInput as exc:
            raise ServeError("invalid-input", str(exc)) from None
        future = asyncio.get_running_loop().create_future()
        self.coalescer.submit(
            PendingOp(
                entry=entry,
                kind=op,
                alice_set=alice,
                bob_set=bob,
                future=future,
                request_id=request.get("id"),
            )
        )
        return future

    @staticmethod
    def _reply_callback(op: str, request_id: Optional[int], enqueue, discard):
        def callback(future: "asyncio.Future") -> None:
            discard(future)
            if future.cancelled():
                return
            exc = future.exception()
            if exc is not None:
                if isinstance(exc, ServeError):
                    enqueue(exc.reply(request_id))
                else:
                    enqueue(
                        error_reply(
                            "internal", f"{type(exc).__name__}: {exc}", request_id
                        )
                    )
                return
            value, record = future.result()
            reply = {
                "ok": True,
                "result": _json_value(op, value),
                "bits": record.bits,
                "messages": record.messages,
                "protocol": record.protocol,
                "index": record.index,
                # A certified-superset answer (retry budget exhausted under
                # faults) is still ok=True -- the degradation contract is a
                # valid reply -- but the client must be able to tell.
                "degraded": record.degraded,
            }
            if request_id is not None:
                reply["id"] = request_id
            enqueue(reply)

        return callback

    # -- control operations -------------------------------------------------

    def _handle_control(
        self, op: Any, request: Dict[str, Any]
    ) -> Dict[str, Any]:
        if op == "ping":
            return {"ok": True, "pong": True}
        if op == "open":
            return self._control_open(request)
        if op == "stats":
            entry = self.registry.get(self._session_key(request))
            return {"ok": True, "stats": entry.stats_payload()}
        if op == "close":
            entry = self.registry.close(self._session_key(request))
            return {"ok": True, "stats": entry.stats_payload()}
        if op == "info":
            return {"ok": True, "info": self.info_payload()}
        if op == "metrics":
            return {"ok": True, "metrics": self.metrics_payload()}
        if op == "shutdown":
            self._closing = True
            return {"ok": True, "stopping": True}
        raise ServeError("bad-request", f"unknown op {op!r}")

    @staticmethod
    def _session_key(request: Dict[str, Any]) -> str:
        key = request.get("session")
        if not isinstance(key, str):
            raise ServeError("bad-request", "'session' must be a string key")
        return key

    def _control_open(self, request: Dict[str, Any]) -> Dict[str, Any]:
        key = self._session_key(request)
        universe_size = request.get("universe")
        max_set_size = request.get("k")
        if not isinstance(universe_size, int) or isinstance(universe_size, bool):
            raise ServeError("bad-request", "'universe' must be an integer")
        if not isinstance(max_set_size, int) or isinstance(max_set_size, bool):
            raise ServeError("bad-request", "'k' must be an integer")
        rounds = request.get("rounds")
        if rounds is not None and (
            not isinstance(rounds, int) or isinstance(rounds, bool)
        ):
            raise ServeError("bad-request", "'rounds' must be an integer")
        seed = request.get("seed")
        if seed is not None and (
            not isinstance(seed, int) or isinstance(seed, bool)
        ):
            raise ServeError("bad-request", "'seed' must be an integer")
        faults = request.get("faults")
        if faults is not None and not isinstance(faults, str):
            raise ServeError(
                "bad-request", "'faults' must be a fault-spec string"
            )
        amplified = request.get("amplified", False)
        if not isinstance(amplified, bool):
            raise ServeError("bad-request", "'amplified' must be a boolean")
        # The rest (model, bounds, round budget) is the protocol chooser's
        # to refuse: the registry answers its ValueError with bad-request.
        model = request.get("model", "shared")
        entry = self.registry.open(
            key,
            universe_size=universe_size,
            max_set_size=max_set_size,
            rounds=rounds,
            model=model,
            amplified=amplified,
            seed=seed,
            faults=faults,
        )
        return {
            "ok": True,
            "session": key,
            "seed": entry.session.seed,
        }
