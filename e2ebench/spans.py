"""Span recorder for the traced run, and the per-layer analysis of its spans.

The recorder wraps each layer's public entry points (the ``ENTRY_POINTS``
table) and re-points every loaded module that imported them at the
wrapper, so a call into a layer opens a span wherever it comes from.
Garbage-collector pauses arrive through ``gc.callbacks`` and become spans
of layer ``gc``.  A span is five numbers -- name id, start, end, parent
index and op id -- kept in flat arrays while the process runs and written
out once, at the end, with :meth:`SpanRecorder.dump`.

:func:`analyze` turns a dump into the per-layer split of a measured
window.  A layer's self time is the time its spans cover minus the part
their child spans cover; the remainder of the window that no root span
covers is ``unattributed``.  The shares therefore add up to 1 by
construction, and :func:`analyze` checks that they do.

The recorder changes no value the program computes: wrappers pass every
argument and result through untouched.
"""

from __future__ import annotations

import array
import gc
import importlib
import inspect
import pickle
import pkgutil
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Kernel exports wrapped as the ``kernels`` layer.
KERNEL_FUNCTIONS = (
    "affine_image_batch",
    "affine_image_batch_scalar",
    "affine_image_segments",
    "affine_image_segments_scalar",
    "bucket_assign",
    "bucket_assign_scalar",
    "equal_mask",
    "equal_mask_scalar",
    "fingerprint_sweep",
    "fingerprint_sweep_segments",
    "fingerprint_sweep_segments_scalar",
    "mod_batch",
    "mod_batch_scalar",
    "sort_ints",
    "sort_ints_scalar",
)

#: ``util.bits`` codec functions.
BITS_CODECS = (
    "encode_uint",
    "decode_uint",
    "encode_elias_gamma",
    "decode_elias_gamma",
    "encode_fixed_list",
    "decode_fixed_list",
    "write_fixed_list",
    "read_fixed_list",
    "encode_delta_sorted_set",
    "decode_delta_sorted_set",
)

#: ``BitWriter`` / ``BitReader`` methods: the codec the protocols call.
BIT_METHODS = (
    *(f"BitWriter.{name}" for name in (
        "write_bit", "write_uint", "write_run", "write_bits", "write_gamma",
        "write_gamma_run", "write_chunk_frame", "finish",
    )),
    *(f"BitReader.{name}" for name in (
        "read_bit", "read_uint", "read_run", "read_bits", "read_gamma",
        "read_gamma_run", "read_chunk_frame",
    )),
)

#: Party-coroutine methods.  Each resumption of a party coroutine is a span
#: of ``core`` or ``protocols`` (by the module defining it), so protocol
#: logic is not booked to the engine or the barrier that drives it.
PARTY_METHODS = ("alice", "bob", "party_with_pending_sweeps")
PARTY_PACKAGES = ("repro.core.", "repro.protocols.")

#: ``(layer, module, attribute)``; a dotted attribute names a method.
#: ``SetIntersectionProtocol.run`` is booked to ``core`` or ``protocols``
#: by the module of the protocol class it runs.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    *(("util.bits", "repro.util.bits", name) for name in BITS_CODECS + BIT_METHODS),
    *(("kernels", "repro.kernels.batch", name) for name in KERNEL_FUNCTIONS),
    ("hashing", "repro.hashing.pairwise", "sample_pairwise_hash"),
    ("comm", "repro.comm.engine", "run_two_party"),
    ("comm", "repro.comm.transcript", "Transcript.record_send"),
    ("core", "repro.core.api", "compute_intersection"),
    ("protocols", "repro.protocols.base", "SetIntersectionProtocol.run"),
    ("session", "repro.session", "IntersectionSession.intersect"),
    ("session", "repro.session", "IntersectionSession.intersection_size"),
    ("session", "repro.session", "IntersectionSession.jaccard"),
    ("session", "repro.session", "IntersectionSession.contains_any"),
    ("session", "repro.session", "IntersectionSession.record_operation"),
    ("serve.coalescer", "repro.serve.coalescer", "one_round_batch_results"),
    ("serve.coalescer", "repro.serve.coalescer", "run_scalar_operation"),
    ("serve.coalescer", "repro.serve.coalescer", "BatchCoalescer.submit"),
    # The coalescer's per-tick execution: its start is where an op's
    # queue wait ends.
    ("serve.coalescer", "repro.serve.coalescer", "BatchCoalescer._execute"),
    ("serve.barrier", "repro.serve.barrier", "tree_batch_results"),
    ("serve.wire", "repro.serve.wire", "encode_frame"),
    ("serve.wire", "repro.serve.wire", "decode_frame_payload"),
    ("faults", "repro.faults.retry", "run_with_retry"),
    ("multiparty", "repro.multiparty.network", "run_message_passing"),
    ("multiparty.recovery", "repro.multiparty.recovery", "run_with_recovery"),
    ("plans", "repro.plans.compile", "compile_plan"),
    ("plans", "repro.plans.runner", "execute_shard"),
    ("perf.executor", "repro.perf.executor", "run_trials"),
)

#: Every layer that can own spans, in report order.
SPAN_LAYERS = (
    "util.bits",
    "kernels",
    "hashing",
    "comm",
    "core",
    "protocols",
    "session",
    "serve.coalescer",
    "serve.barrier",
    "serve.wire",
    "faults",
    "multiparty",
    "multiparty.recovery",
    "plans",
    "perf.executor",
    "gc",
)

#: Entry points whose call is one op: the spans under them carry its id.
_OP_SCOPES = {"run_with_retry", "run_with_recovery"}


def replace_everywhere(original: Any, replacement: Any) -> None:
    """Point every loaded module's reference to ``original`` at
    ``replacement``."""
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                setattr(module, key, replacement)


def _layer_of(span_name: str) -> str:
    return span_name.split(":", 1)[0]


def _kernel_lanes(result: Any) -> int:
    """Lanes a kernel call evaluated, read from its result (one output
    per input key; segmented kernels return one list per segment)."""
    if result and isinstance(result[0], list):
        return sum(len(part) for part in result)
    return len(result)


def _owner_layer(cls: type) -> str:
    return "core" if cls.__module__.startswith("repro.core.") else "protocols"


class _TimedParty:
    """A party coroutine whose every resumption is a span."""

    __slots__ = ("_coroutine", "_recorder", "_name_index")

    def __init__(self, coroutine, recorder: "SpanRecorder", name_index: int) -> None:
        self._coroutine = coroutine
        self._recorder = recorder
        self._name_index = name_index

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        recorder = self._recorder
        if not recorder.on:
            return self._coroutine.send(value)
        span = recorder._open(self._name_index, time.perf_counter())
        try:
            return self._coroutine.send(value)
        finally:
            recorder._close(span)

    def throw(self, *args):
        recorder = self._recorder
        if not recorder.on:
            return self._coroutine.throw(*args)
        span = recorder._open(self._name_index, time.perf_counter())
        try:
            return self._coroutine.throw(*args)
        finally:
            recorder._close(span)

    def close(self):
        return self._coroutine.close()


def _timed_party_method(method, recorder: "SpanRecorder", name_index: int):
    def party(*args, **kwargs):
        return _TimedParty(method(*args, **kwargs), recorder, name_index)

    party.__wrapped__ = method
    party.__name__ = method.__name__
    return party


class SpanRecorder:
    """Records spans while :attr:`on` is set; see the module docstring."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.op = array.array("q")
        self._stack: List[int] = [-1]
        self._current_op = -1
        self._trial = 0
        self.on = False
        #: Entry points that were not found (a later change removed them).
        self.missing: List[str] = []
        # Per-layer counts measured at the same boundaries as the spans.
        #: ``(start, lanes)`` per outermost kernel call.
        self.kernel_calls: List[Tuple[float, int]] = []
        #: ``(start, bytes)`` per frame encoded or decoded by this process.
        self.wire_bytes: List[Tuple[float, int]] = []
        #: ``(start, messages opened)`` per transcript send.
        self.engine_messages: List[Tuple[float, int]] = []
        #: ``(execution start, wait_s)`` per op the coalescer executed.
        self.coalescer_waits: List[Tuple[float, float]] = []
        #: ``(execution start, ops)`` per coalescer tick.
        self.coalescer_batches: List[Tuple[float, int]] = []
        #: ``(start, end, parent, op, generation)`` per collection: spans
        #: of layer ``gc``, always leaves.
        self.gc_spans: List[Tuple[float, float, int, int, int]] = []
        #: Submit time and request id of each op the coalescer holds, by
        #: the id of the op and of its input.
        self._submitted: Dict[int, float] = {}
        self._op_of_input: Dict[int, int] = {}
        self._gc_started = 0.0
        #: Snapshots the owning process attaches before dumping.
        self.extra: Dict[str, Any] = {}

    # -- span bookkeeping ----------------------------------------------------

    def _name(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def _open(self, name_index: int, started: float) -> int:
        index = len(self.start)
        self.name_id.append(name_index)
        self.start.append(started)
        self.end.append(started)
        self.parent.append(self._stack[-1])
        self.op.append(self._current_op)
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def _parent_layer(self) -> Optional[str]:
        parent = self._stack[-1]
        if parent < 0:
            return None
        return _layer_of(self.names[self.name_id[parent]])

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, layer: str, attr: str, fn):
        recorder = self
        short = attr.rsplit(".", 1)[-1]
        name_index = self._name(f"{layer}:{attr}")

        if attr == "SetIntersectionProtocol.run":
            by_class: Dict[type, int] = {}

            def protocol_run(self_, *args, **kwargs):
                if not recorder.on:
                    return fn(self_, *args, **kwargs)
                cls = type(self_)
                index = by_class.get(cls)
                if index is None:
                    index = by_class[cls] = recorder._name(
                        f"{_owner_layer(cls)}:{cls.__name__}.run"
                    )
                span = recorder._open(index, time.perf_counter())
                try:
                    return fn(self_, *args, **kwargs)
                finally:
                    recorder._close(span)

            return protocol_run

        if layer == "kernels":

            def kernel(*args, **kwargs):
                if not recorder.on:
                    return fn(*args, **kwargs)
                outermost = recorder._parent_layer() != "kernels"
                started = time.perf_counter()
                span = recorder._open(name_index, started)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    recorder._close(span)
                if outermost:
                    recorder.kernel_calls.append((started, _kernel_lanes(result)))
                return result

            return kernel

        if short == "encode_frame":

            def encode(*args, **kwargs):
                if not recorder.on:
                    return fn(*args, **kwargs)
                started = time.perf_counter()
                span = recorder._open(name_index, started)
                try:
                    frame = fn(*args, **kwargs)
                finally:
                    recorder._close(span)
                recorder.wire_bytes.append((started, len(frame)))
                return frame

            return encode

        if short == "decode_frame_payload":

            def decode(payload, *args, **kwargs):
                if not recorder.on:
                    return fn(payload, *args, **kwargs)
                started = time.perf_counter()
                span = recorder._open(name_index, started)
                try:
                    return fn(payload, *args, **kwargs)
                finally:
                    recorder._close(span)
                    # 4-byte length header + payload, as read off the socket.
                    recorder.wire_bytes.append((started, 4 + len(payload)))

            return decode

        if attr == "Transcript.record_send":

            def record_send(self_, *args, **kwargs):
                if not recorder.on:
                    return fn(self_, *args, **kwargs)
                before = self_.num_messages
                started = time.perf_counter()
                span = recorder._open(name_index, started)
                try:
                    return fn(self_, *args, **kwargs)
                finally:
                    recorder._close(span)
                    # A send opens a message unless it extends the sender's
                    # current one (the transcript's merge convention).
                    recorder.engine_messages.append((started, self_.num_messages - before))

            return record_send

        if attr == "BatchCoalescer.submit":

            def submit(self_, op, *args, **kwargs):
                if not recorder.on:
                    return fn(self_, op, *args, **kwargs)
                started = time.perf_counter()
                request_id = op.request_id if op.request_id is not None else -1
                outer_op = recorder._current_op
                recorder._current_op = request_id
                span = recorder._open(name_index, started)
                try:
                    return fn(self_, op, *args, **kwargs)
                finally:
                    recorder._close(span)
                    recorder._current_op = outer_op
                    recorder._submitted[id(op)] = started
                    recorder._op_of_input[id(op.alice_set)] = request_id

            return submit

        if attr == "BatchCoalescer._execute":

            def execute(self_, batch, *args, **kwargs):
                if not recorder.on:
                    return fn(self_, batch, *args, **kwargs)
                started = time.perf_counter()
                for op in batch:
                    submitted = recorder._submitted.pop(id(op), None)
                    if submitted is not None:
                        recorder.coalescer_waits.append((started, started - submitted))
                recorder.coalescer_batches.append((started, len(batch)))
                span = recorder._open(name_index, started)
                try:
                    return fn(self_, batch, *args, **kwargs)
                finally:
                    recorder._close(span)
                    # The batch is answered: its inputs' ids may be reused.
                    for op in batch:
                        recorder._op_of_input.pop(id(op.alice_set), None)

            return execute

        if short == "run_scalar_operation":

            def scalar(entry, kind, alice_set, *args, **kwargs):
                if not recorder.on:
                    return fn(entry, kind, alice_set, *args, **kwargs)
                outer_op = recorder._current_op
                recorder._current_op = recorder._op_of_input.get(id(alice_set), -1)
                span = recorder._open(name_index, time.perf_counter())
                try:
                    return fn(entry, kind, alice_set, *args, **kwargs)
                finally:
                    recorder._close(span)
                    recorder._current_op = outer_op

            return scalar

        if short in _OP_SCOPES:

            def trial(*args, **kwargs):
                if not recorder.on:
                    return fn(*args, **kwargs)
                outer_op = recorder._current_op
                recorder._current_op = recorder._trial
                recorder._trial += 1
                span = recorder._open(name_index, time.perf_counter())
                try:
                    return fn(*args, **kwargs)
                finally:
                    recorder._close(span)
                    recorder._current_op = outer_op

            return trial

        def plain(*args, **kwargs):
            if not recorder.on:
                return fn(*args, **kwargs)
            span = recorder._open(name_index, time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(span)

        return plain

    def _gc_callback(self, phase: str, info: Dict[str, Any]) -> None:
        # Collections are kept apart from the span arrays: a callback may
        # fire between two appends of a span being opened.
        if not self.on:
            return
        now = time.perf_counter()
        if phase == "start":
            self._gc_started = now
            return
        self.gc_spans.append(
            (
                self._gc_started,
                now,
                self._stack[-1],
                self._current_op,
                int(info.get("generation", 0)),
            )
        )

    # -- install / remove ------------------------------------------------------

    def install(self, entry_points: Sequence[Tuple[str, str, str]] = ENTRY_POINTS) -> None:
        """Wrap every entry point and patch each module that imported it;
        modules imported later get the wrapper from its home module.

        Entry points that no longer exist are skipped and listed in
        :attr:`missing`.
        """
        for layer, module_name, attr in entry_points:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name}.{attr}")
                continue
            owner: Any = module
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None or not callable(original):
                self.missing.append(f"{module_name}.{attr}")
                continue
            if inspect.isgeneratorfunction(original) or inspect.iscoroutinefunction(original):
                raise TypeError(f"{module_name}.{attr} does not return when done")
            wrapper = self._wrap(layer, attr, original)
            wrapper.__wrapped__ = original
            wrapper.__name__ = getattr(original, "__name__", leaf)
            if path:
                setattr(owner, leaf, wrapper)
            else:
                replace_everywhere(original, wrapper)
        self._install_parties()
        gc.callbacks.append(self._gc_callback)

    def _install_parties(self) -> None:
        # Load every module that can define a party, then wrap them all.
        for package_name in PARTY_PACKAGES:
            package = importlib.import_module(package_name.rstrip("."))
            for info in pkgutil.iter_modules(package.__path__, package_name):
                importlib.import_module(info.name)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if not module_name.startswith(PARTY_PACKAGES):
                continue
            for cls in list(vars(module).values()):
                if not isinstance(cls, type) or cls.__module__ != module_name:
                    continue
                for attr in PARTY_METHODS:
                    method = cls.__dict__.get(attr)
                    if not inspect.isgeneratorfunction(method):
                        continue
                    name_index = self._name(f"{_owner_layer(cls)}:{cls.__name__}.{attr}")
                    setattr(cls, attr, _timed_party_method(method, self, name_index))

    # -- output ----------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span and count to ``path`` (read by :func:`load`)."""
        document = {
            "names": self.names,
            "name_id": self.name_id,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "missing": self.missing,
            "kernel_calls": self.kernel_calls,
            "wire_bytes": self.wire_bytes,
            "engine_messages": self.engine_messages,
            "coalescer_waits": self.coalescer_waits,
            "coalescer_batches": self.coalescer_batches,
            "gc_spans": self.gc_spans,
            "extra": self.extra,
        }
        with open(path, "wb") as handle:
            pickle.dump(document, handle, protocol=pickle.HIGHEST_PROTOCOL)


def load(path: str) -> Dict[str, Any]:
    """Read a dump this benchmark's own recorder wrote."""
    with open(path, "rb") as handle:
        return pickle.load(handle)


def _in_window(samples, t0: float, t1: float):
    return [sample for sample in samples if t0 <= sample[0] <= t1]


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2


def analyze(dump: Dict[str, Any], t0: float, t1: float, ops: int) -> Dict[str, float]:
    """Per-layer metrics of the window ``[t0, t1]`` that served ``ops`` ops.

    Returns ``<layer>.self_frac`` and ``<layer>.calls_per_op`` for every
    layer in :data:`SPAN_LAYERS`, ``unattributed_frac``, and the counts
    measured at the span boundaries.  Raises ``AssertionError`` when the
    layer shares and the unattributed share do not add up to 1.
    """
    window = t1 - t0
    if window <= 0 or ops <= 0:
        raise ValueError("an empty window has no per-layer split")
    names = dump["names"]
    layers_of_name = [_layer_of(name) for name in names]
    name_id = dump["name_id"]
    starts = dump["start"]
    ends = dump["end"]
    parents = dump["parent"]
    count = len(starts)
    # Clip every span to the window and to its (already clipped) parent;
    # parents precede their children in the arrays.
    lo = [0.0] * count
    hi = [0.0] * count
    for index in range(count):
        a = max(starts[index], t0)
        b = min(ends[index], t1)
        parent = parents[index]
        if parent >= 0:
            a = max(a, lo[parent])
            b = min(b, hi[parent])
        if b < a:
            b = a
        lo[index] = a
        hi[index] = b
    self_time = {layer: 0.0 for layer in SPAN_LAYERS}
    calls = {layer: 0 for layer in SPAN_LAYERS}
    child_time = [0.0] * count
    root_time = 0.0
    for index in range(count):
        duration = hi[index] - lo[index]
        parent = parents[index]
        if parent >= 0:
            child_time[parent] += duration
        else:
            root_time += duration
    for index in range(count):
        layer = layers_of_name[name_id[index]]
        self_time[layer] = self_time.get(layer, 0.0) + (
            hi[index] - lo[index] - child_time[index]
        )
        if t0 <= starts[index] <= t1:
            parent = parents[index]
            if parent < 0 or layers_of_name[name_id[parent]] != layer:
                calls[layer] = calls.get(layer, 0) + 1
    pauses = []
    for started, ended, parent, _, generation in dump["gc_spans"]:
        a, b = max(started, t0), min(ended, t1)
        if parent >= 0:
            a, b = max(a, lo[parent]), min(b, hi[parent])
        if b <= a:
            continue
        if parent >= 0:
            # The parent's self time excludes the pause, which is booked
            # to ``gc`` instead.
            self_time[layers_of_name[name_id[parent]]] -= b - a
        else:
            root_time += b - a
        self_time["gc"] += b - a
        calls["gc"] += 1
        pauses.append((b - a, generation))
    metrics: Dict[str, float] = {}
    for layer in SPAN_LAYERS:
        metrics[f"{layer}.self_frac"] = self_time.get(layer, 0.0) / window
        metrics[f"{layer}.calls_per_op"] = calls.get(layer, 0) / ops
    unattributed = (window - root_time) / window
    metrics["unattributed_frac"] = unattributed
    total = sum(self_time.values()) / window + unattributed
    assert abs(total - 1.0) < 1e-6, f"layer shares sum to {total}, not 1"

    kernel_calls = _in_window(dump["kernel_calls"], t0, t1)
    lanes = [entry[1] for entry in kernel_calls]
    from repro.kernels import MIN_LANES

    metrics["kernels.lanes_per_call"] = sum(lanes) / len(lanes) if lanes else 0.0
    metrics["kernels.wide_call_frac"] = (
        sum(1 for value in lanes if value >= MIN_LANES) / len(lanes) if lanes else 0.0
    )
    # 8 bytes per lane in and 8 out: the uint64 traffic a lane costs.
    metrics["kernels.bytes_per_op"] = 16.0 * sum(lanes) / ops
    metrics["comm.messages_per_op"] = (
        sum(entry[1] for entry in _in_window(dump["engine_messages"], t0, t1)) / ops
    )
    metrics["serve.wire.bytes_per_op"] = (
        sum(entry[1] for entry in _in_window(dump["wire_bytes"], t0, t1)) / ops
    )
    waits = [entry[1] for entry in _in_window(dump["coalescer_waits"], t0, t1)]
    metrics["serve.coalescer.wait_ms"] = 1e3 * _median(waits)
    batches = [entry[1] for entry in _in_window(dump["coalescer_batches"], t0, t1)]
    metrics["serve.coalescer.ops_per_batch"] = sum(batches) / len(batches) if batches else 0.0
    metrics["gc.max_pause_ms"] = 1e3 * max((entry[0] for entry in pauses), default=0.0)
    metrics["gc.gen2_per_kop"] = 1e3 * sum(1 for entry in pauses if entry[1] == 2) / ops
    return metrics


def hotcache_metrics(before: Dict[str, Dict[str, int]], after: Dict[str, Dict[str, int]]) -> Dict[str, float]:
    """Hit rates over the window from two ``hotcache.stats()`` snapshots."""
    short_names = {
        "pairwise_sample": "hashing.pairwise.sample",
        "derive_seed": "util.rng.derive_seed",
        "fingerprint_value_of": "protocols.fingerprint.value_of",
        "canonical_bytes": "protocols.fingerprint.canonical_bytes",
        "node_union": "core.tree_protocol.node_union",
    }

    def delta(name: str) -> Tuple[int, int]:
        now = after.get(name, {"hits": 0, "misses": 0})
        then = before.get(name, {"hits": 0, "misses": 0})
        return now["hits"] - then["hits"], now["misses"] - then["misses"]

    hits = misses = 0
    for name in after:
        h, m = delta(name)
        hits += h
        misses += m
    metrics = {
        "util.hotcache.hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "util.hotcache.entries": float(sum(info["currsize"] for info in after.values())),
    }
    for short, name in short_names.items():
        h, m = delta(name)
        metrics[f"util.hotcache.{short}.hit_frac"] = h / (h + m) if h + m else 0.0
    return metrics
