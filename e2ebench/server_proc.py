"""The server process of the serve workloads.

Boots the intersection server on a Unix socket with the configuration
``repro serve run --transport uds --uds PATH`` uses (coalescing on, 2 ms
tick, default queue bounds) and serves until SIGTERM or SIGINT.  It
prints ``ready`` on stdout once the socket listens.

With ``--trace-dump PATH`` the span recorder is installed before the
server starts, and two signals bracket the measured window: SIGUSR1
snapshots the hot caches and starts recording (reply: ``marked``),
SIGUSR2 stops recording, snapshots the caches, the metrics registry and
the sessions' history lengths, and writes every span to PATH (reply:
``dumped``).

With ``--cpu N`` the process runs on CPU N only.

Usage: python3 e2ebench/server_proc.py --uds PATH [--cpu N] [--trace-dump PATH]
"""

from __future__ import annotations

import argparse
import asyncio
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _say(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--uds", required=True)
    parser.add_argument("--cpu", type=int, default=None)
    parser.add_argument("--trace-dump", default=None)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from repro.obs import metrics
    from repro.serve import IntersectionServer, ServeConfig
    from repro.util import hotcache

    recorder = None
    if args.trace_dump:
        from spans import SpanRecorder

        recorder = SpanRecorder()
        recorder.install()

    async def serve() -> None:
        server = IntersectionServer(
            ServeConfig(
                host="127.0.0.1",
                port=0,
                transport="uds",
                uds_path=args.uds,
                master_seed=0,
            )
        )
        await server.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        loop.add_signal_handler(signal.SIGINT, stop.set)

        if recorder is not None:

            def mark() -> None:
                recorder.extra["hotcache_before"] = hotcache.stats()
                recorder.on = True
                _say("marked")

            def dump() -> None:
                recorder.on = False
                recorder.extra["hotcache_after"] = hotcache.stats()
                recorder.extra["metrics"] = metrics.snapshot(include_hotcache=True)
                recorder.extra["history_len"] = sum(
                    len(server.registry.get(key).session.stats().history)
                    for key in server.registry.keys()
                )
                recorder.dump(args.trace_dump)
                _say("dumped")

            loop.add_signal_handler(signal.SIGUSR1, mark)
            loop.add_signal_handler(signal.SIGUSR2, dump)

        _say("ready")
        try:
            await stop.wait()
        finally:
            await server.stop()

    asyncio.run(serve())
    return 0


if __name__ == "__main__":
    sys.exit(main())
