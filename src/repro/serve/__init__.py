"""``repro.serve``: intersection-as-a-service.

The paper's protocols are per-pair primitives; production traffic is a
long-lived server multiplexing thousands of concurrent sessions.  This
package is that service shape:

* :mod:`repro.serve.wire` -- the length-prefixed JSON frame protocol and
  its typed error replies (overload shedding is a *reply*, never a silent
  drop);
* :mod:`repro.serve.registry` -- the session registry:
  :class:`~repro.session.IntersectionSession`-backed sessions with
  ``derive_seed`` lineage and cumulative accounting billed through the obs
  metrics registry;
* :mod:`repro.serve.coalescer` -- the perf core: operations arriving
  within a scheduling tick are grouped by (protocol, round-shape) and
  their hash sweeps dispatched as *one*
  :func:`repro.kernels.affine_image_segments` call, so the kernel layer's
  ``MIN_LANES`` threshold is crossed by aggregate traffic even when every
  individual session is small -- bit-identical to the per-session scalar
  path by construction, pinned by tests;
* :mod:`repro.serve.server` -- the asyncio server: bounded per-session and
  global queues, backpressure, graceful shedding;
* :mod:`repro.serve.loadgen` -- the deterministic load harness
  (``repro serve load``): seeded traffic mixes (JSON mix documents),
  p50/p99/p999 latency, sessions/sec, coalesced-lane occupancy, and a
  serial reference runner for the determinism gate;
* :mod:`repro.serve.fleet` -- the out-of-process load mode: spawned
  worker processes each running the load harness's one client over real
  TCP or Unix-domain sockets (``run_load(transport="tcp"|"uds")``,
  ``repro serve load --transport {tcp,uds}``), with the determinism
  fingerprint and shed contract extending unchanged.
"""

from repro.serve.coalescer import (
    BatchCoalescer,
    coalescible,
    one_round_batch_results,
)
from repro.serve.fleet import FleetError
from repro.serve.loadgen import (
    DEFAULT_MIX,
    PROFILES,
    TRANSPORTS,
    LoadMix,
    LoadReport,
    latency_histogram,
    mix_from_dict,
    mix_to_dict,
    run_load,
    run_mix_serial,
)
from repro.serve.registry import SessionRegistry
from repro.serve.server import SERVER_TRANSPORTS, IntersectionServer, ServeConfig
from repro.serve.wire import (
    MAX_FRAME_BYTES,
    FrameError,
    ServeError,
    encode_frame,
    error_reply,
    read_frame,
)

__all__ = [
    "BatchCoalescer",
    "coalescible",
    "one_round_batch_results",
    "DEFAULT_MIX",
    "TRANSPORTS",
    "PROFILES",
    "LoadMix",
    "LoadReport",
    "latency_histogram",
    "mix_from_dict",
    "mix_to_dict",
    "run_load",
    "run_mix_serial",
    "FleetError",
    "SessionRegistry",
    "IntersectionServer",
    "ServeConfig",
    "SERVER_TRANSPORTS",
    "MAX_FRAME_BYTES",
    "FrameError",
    "ServeError",
    "encode_frame",
    "error_reply",
    "read_frame",
]
