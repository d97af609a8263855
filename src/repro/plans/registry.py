"""The protocol registry: plan-spec names to constructable protocols.

One mapping from short registry names (the strings plans and the CLI use)
to builder callables ``(universe_size, max_set_size, params) -> protocol``.
``repro faults``, ``repro plan run`` and ``repro conformance`` resolve
protocols here, so the commands cannot drift apart on what ``"bucket"``
means.

Imports are deferred into the builders: the registry is consulted by the
CLI's argument validation before any protocol code needs to load.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping

from repro.plans.model import ProtocolSpec

__all__ = [
    "PROTOCOLS",
    "MULTIPARTY_PROTOCOLS",
    "build_protocol",
    "build_multiparty_protocol",
    "protocol_display_name",
]


def _tree(n: int, k: int, params: Mapping[str, Any]):
    from repro.core.tree_protocol import TreeProtocol

    return TreeProtocol(n, k, rounds=params.get("rounds"))


def _bucket(n: int, k: int, params: Mapping[str, Any]):
    from repro.protocols.bucket_verify import BucketVerifyProtocol

    return BucketVerifyProtocol(n, k)


def _basic(n: int, k: int, params: Mapping[str, Any]):
    from repro.protocols.basic_intersection import BasicIntersectionProtocol

    return BasicIntersectionProtocol(n, k)


def _amplified(n: int, k: int, params: Mapping[str, Any]):
    from repro.core.amplify import AmplifiedIntersection

    return AmplifiedIntersection(n, k)


def _one_round(n: int, k: int, params: Mapping[str, Any]):
    from repro.protocols.one_round import OneRoundHashingProtocol

    return OneRoundHashingProtocol(n, k)


def _trivial(n: int, k: int, params: Mapping[str, Any]):
    from repro.protocols.trivial import TrivialExchangeProtocol

    return TrivialExchangeProtocol(n, k)


def _sqrt_k(n: int, k: int, params: Mapping[str, Any]):
    from repro.protocols.sqrt_k import SqrtKProtocol

    return SqrtKProtocol(n, k)


#: Registry name -> builder.  Names match the historical ``repro faults``
#: CLI vocabulary so existing invocations keep working.
PROTOCOLS: Dict[str, Callable] = {
    "tree": _tree,
    "bucket": _bucket,
    "basic": _basic,
    "amplified": _amplified,
    "one-round": _one_round,
    "trivial": _trivial,
    "sqrt-k": _sqrt_k,
}


def _coordinator(n: int, k: int, params: Mapping[str, Any]):
    from repro.multiparty.coordinator import CoordinatorIntersection

    return CoordinatorIntersection(
        n,
        k,
        rounds=params.get("rounds"),
        group_size=params.get("group_size"),
        broadcast=bool(params.get("broadcast", False)),
    )


def _binary_tree(n: int, k: int, params: Mapping[str, Any]):
    from repro.multiparty.binary_tree import BinaryTreeIntersection

    return BinaryTreeIntersection(
        n,
        k,
        rounds=params.get("rounds"),
        group_size=params.get("group_size"),
        broadcast=bool(params.get("broadcast", False)),
    )


#: The m-player registry (the ``multiparty-survival`` analysis axis).
#: Kept separate from :data:`PROTOCOLS` because the builders produce
#: objects with a different ``run`` signature (``sets`` not
#: ``alice, bob``) -- mixing the namespaces would let a plan compile into
#: shards that can only fail at execution time.
MULTIPARTY_PROTOCOLS: Dict[str, Callable] = {
    "coordinator": _coordinator,
    "binary-tree": _binary_tree,
}


def build_protocol(spec: ProtocolSpec, universe_size: int, max_set_size: int):
    """Construct the protocol a spec names for one instance family.

    :raises ValueError: unknown registry name (callers surface this as a
        CLI usage error before any shard executes).
    """
    builder = PROTOCOLS.get(spec.name)
    if builder is None:
        raise ValueError(
            f"unknown protocol {spec.name!r} "
            f"(know: {', '.join(sorted(PROTOCOLS))})"
        )
    return builder(universe_size, max_set_size, dict(spec.params))


def build_multiparty_protocol(
    spec: ProtocolSpec, universe_size: int, max_set_size: int
):
    """Construct the m-player protocol a spec names.

    :raises ValueError: unknown registry name.
    """
    builder = MULTIPARTY_PROTOCOLS.get(spec.name)
    if builder is None:
        raise ValueError(
            f"unknown multiparty protocol {spec.name!r} "
            f"(know: {', '.join(sorted(MULTIPARTY_PROTOCOLS))})"
        )
    return builder(universe_size, max_set_size, dict(spec.params))


def protocol_display_name(
    spec: ProtocolSpec, universe_size: int, max_set_size: int
) -> str:
    """The protocol's own ``name`` attribute (e.g. ``"bucket-verify"``)."""
    return build_protocol(spec, universe_size, max_set_size).name
