"""Multi-process client fleet: the load client over real sockets.

The in-process run (:func:`repro.serve.loadgen.run_load` with the default
``inproc`` transport) shares one event loop between the server and its
client, so its capacity numbers never pay the syscall, serialization, or
RTT costs a deployed client pays -- exactly the costs that make *round*
complexity matter in practice.  With ``transport="tcp"`` or ``"uds"``,
``run_load`` keeps the server in the calling process and hands the
clients to this module, which only spawns the workers, holds the start
rendezvous and collects their results.  Each worker runs the same
:func:`~repro.serve.loadgen._client` the in-process run awaits, over its
round-robin share of the sessions (the same rule that deals sessions
onto connections), so serial oracle, in-process client and socket fleet
all produce the identical fingerprint.

**Measurement discipline.**  Workers pre-encode every frame and open
every session *before* a start barrier; the measured window opens when
the last worker reaches the barrier and closes when the last worker's
results arrive, so the numbers cover socket traffic, not process spawn
or JSON encoding.  ``run_load`` merges the workers' payloads into one
:class:`~repro.serve.loadgen.LoadReport` and keeps per-worker summaries
in ``report.workers``.

**Failures.**  Every worker owes the parent exactly one report, ok or
error, and files a failure *before* it breaks the barrier.  The parent
reads every report it is owed off its serving loop (a worker still
opening sessions must get its replies), so a failed run raises
:class:`FleetError` naming each worker's exception instead of stalling.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import queue
import threading
import time
from typing import Any, Dict, List, Sequence, Tuple

from repro.serve.loadgen import LoadMix, _client, mix_from_dict, mix_to_dict

__all__ = ["FleetError", "drive_fleet"]

#: How long the parent waits at the start barrier (the workers' unmeasured
#: connect + open phase) and for each worker's report after it.
_WORKER_TIMEOUT_S = 120.0


class FleetError(RuntimeError):
    """A worker process failed; carries every worker's failure text."""


def _worker_main(
    worker_index: int,
    mix_doc: Dict[str, Any],
    endpoint: Tuple[str, Any],
    session_indices: List[int],
    connections: int,
    pipeline: int,
    barrier,
    result_queue,
) -> None:
    """Entry point of one spawned worker process: one client, one report."""
    try:
        payload = asyncio.run(
            _client(
                mix_from_dict(mix_doc),
                endpoint,
                session_indices,
                connections,
                pipeline,
                barrier,
            )
        )
    except BaseException as exc:  # surfaced in the parent, never swallowed
        # Report first: the parent's barrier wait breaks the moment this
        # worker aborts it, and the reason must already be on its way.
        result_queue.put((worker_index, "error", f"{type(exc).__name__}: {exc}"))
        barrier.abort()
    else:
        result_queue.put((worker_index, "ok", payload))


def _read_reports(result_queue, count: int) -> List[Tuple[int, str, Any]]:
    """The reports the workers owe, in worker order (fewer on timeout)."""
    reports = []
    with contextlib.suppress(queue.Empty):
        while len(reports) < count:
            reports.append(result_queue.get(timeout=_WORKER_TIMEOUT_S))
    return sorted(reports, key=lambda report: report[0])


def _reap(processes) -> None:
    for process in processes:
        process.join(timeout=5.0)
        if process.is_alive():
            process.terminate()


async def drive_fleet(
    mix: LoadMix,
    endpoint: Tuple[str, Any],
    shares: Sequence[List[int]],
    connections: int,
    pipeline: int,
) -> Tuple[List[Dict[str, Any]], float]:
    """Run one worker per session share against ``endpoint``.

    Must be awaited on the loop that serves ``endpoint``: every blocking
    wait runs in an executor thread so that loop keeps answering.
    Returns the workers' client payloads in worker order and the wall
    time from the start rendezvous to the last report.

    :raises FleetError: if any worker fails or times out.
    """
    # Spawn (not fork): the parent holds a live event loop and an open
    # listener, neither of which survives a fork cleanly; spawned workers
    # re-import and re-derive everything from the (JSON-round-trippable)
    # mix document, which doubles as proof the schedule is replayable
    # from the document alone.
    ctx = multiprocessing.get_context("spawn")
    # The parent is the extra barrier party: passing it marks every
    # worker connected and opened, and starts the clock.
    barrier = ctx.Barrier(len(shares) + 1)
    result_queue: Any = ctx.Queue()
    processes = [
        ctx.Process(
            target=_worker_main,
            args=(
                worker_index,
                mix_to_dict(mix),
                endpoint,
                share,
                connections,
                pipeline,
                barrier,
                result_queue,
            ),
            daemon=True,
        )
        for worker_index, share in enumerate(shares)
    ]
    loop = asyncio.get_running_loop()
    started = None
    try:
        for process in processes:
            process.start()
        with contextlib.suppress(threading.BrokenBarrierError):
            await loop.run_in_executor(None, barrier.wait, _WORKER_TIMEOUT_S)
            started = time.perf_counter()
        reports = await loop.run_in_executor(
            None, _read_reports, result_queue, len(processes)
        )
        finished = time.perf_counter()
    finally:
        # Wakes any worker still parked at the barrier if the parent
        # leaves early; harmless once every party has passed.
        barrier.abort()
        await loop.run_in_executor(None, _reap, processes)

    failures = [
        f"worker {index}: {detail}"
        for index, status, detail in reports
        if status != "ok"
    ]
    if len(reports) < len(processes):
        failures.append(
            f"timed out waiting for fleet results "
            f"({len(reports)}/{len(processes)} workers reported)"
        )
    if started is None:
        raise FleetError("fleet rendezvous failed: " + "; ".join(failures))
    if failures:
        raise FleetError("; ".join(failures))
    return [payload for _, _, payload in reports], finished - started
