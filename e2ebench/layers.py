"""Which public functions the traced run wraps, and the per-layer metrics.

Each entry names a function at a layer boundary of the program and the
metric its self time is charged to.  Count hooks read the wrapped call's
arguments and result, so ratios are measured where the work happens.
Nothing here changes the program: the tracer patches the attributes
while a traced window is open and restores them afterwards.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.node import ClusterNode
from repro.cluster.rib import RoutingInformationBase
from repro.core.delta import GroupDelta
from repro.epc import fastpath
from repro.epc.controller import EpcController
from repro.epc.dpe import DataPlaneEngine
from repro.epc.gateway import ChargingLedger, EpcGateway
from repro.gpt.gpt import GlobalPartitionTable
from repro.runtime import controller as runtime_controller
from repro.runtime import protocol
from repro.runtime.controller import RuntimeController

from tracer import Tracer

#: Data-path self times, reported in ns per frame.
_DATA_NS = [
    "fastpath.parse_ns", "fastpath.encap_ns", "gateway.self_ns",
    "cluster.route_self_ns", "gpt.lookup_ns", "fabric.deliver_ns",
    "fib.lookup_ns", "dpe.charge_ns", "controller.record_ns",
    "ledger.charge_ns",
]
#: Update-path self times, reported in us per update.
_UPDATE_US = [
    "update.self_us", "rib.group_contents_us", "gpt.rebuild_us",
    "delta.encode_us", "delta.decode_us", "gpt.apply_us", "fib.install_us",
    "controller.bearer_us", "dpe.bearer_us",
]


def _count_parse(counts, args, _kwargs, parsed) -> None:
    counts["parse.frames"] = counts.get("parse.frames", 0) + parsed.n
    spilled = parsed.n if parsed.degenerate else parsed.scalar_spills
    counts["parse.spilled"] = counts.get("parse.spilled", 0) + spilled


def _count_route(counts, _args, _kwargs, batch) -> None:
    counts["route.frames"] = counts.get("route.frames", 0) + len(batch)
    counts["route.remote"] = (
        counts.get("route.remote", 0) + int((batch.hop_counts > 0).sum())
    )


def _count_fib(counts, _args, _kwargs, result) -> None:
    found = result[0]
    counts["fib.lookups"] = counts.get("fib.lookups", 0) + int(found.size)
    counts["fib.misses"] = (
        counts.get("fib.misses", 0) + int(found.size - found.sum())
    )


def _count_group(counts, _args, _kwargs, result) -> None:
    counts["group.keys"] = counts.get("group.keys", 0) + len(result[0])


def _count_delta(counts, args, _kwargs, _wire) -> None:
    delta, params = args[0], args[1]
    counts["delta.bits"] = counts.get("delta.bits", 0) + delta.size_bits(params)


def _count_sent(counts, _args, _kwargs, payload) -> None:
    counts["wire.bytes"] = counts.get("wire.bytes", 0) + len(payload)


def _count_received(counts, args, _kwargs, _outcomes) -> None:
    counts["wire.bytes"] = counts.get("wire.bytes", 0) + len(args[0])


def gateway_tracer(gateway: EpcGateway) -> Tracer:
    """Tracer over the in-process gateway's data and update paths."""
    cluster = gateway.cluster
    assert cluster is not None, "trace a started gateway"
    tracer = Tracer()
    add = tracer.add
    add(EpcGateway, "process_downstream_batch", "gateway.self_ns")
    add(fastpath, "parse_frames", "fastpath.parse_ns", _count_parse)
    add(fastpath, "encapsulate_batch", "fastpath.encap_ns")
    add(Cluster, "route_batch", "cluster.route_self_ns", _count_route)
    add(GlobalPartitionTable, "lookup_batch", "gpt.lookup_ns")
    add(type(cluster.fabric), "deliver_batch", "fabric.deliver_ns")
    add(type(cluster.nodes[0].fib), "lookup_batch_array", "fib.lookup_ns",
        _count_fib)
    add(DataPlaneEngine, "process_batch", "dpe.charge_ns")
    add(EpcController, "record_for_key", "controller.record_ns")
    add(ChargingLedger, "charge_many", "ledger.charge_ns")

    add(EpcGateway, "connect", "update.self_us")
    add(EpcGateway, "disconnect", "update.self_us")
    add(EpcController, "establish_bearer", "controller.bearer_us")
    add(EpcController, "teardown_bearer", "controller.bearer_us")
    add(DataPlaneEngine, "open_bearer", "dpe.bearer_us")
    add(DataPlaneEngine, "close_bearer", "dpe.bearer_us")
    add(RoutingInformationBase, "group_contents", "rib.group_contents_us",
        _count_group)
    add(GlobalPartitionTable, "rebuild_group", "gpt.rebuild_us")
    add(GroupDelta, "wire_bytes", "delta.encode_us", _count_delta)
    add(GroupDelta, "from_wire_bytes", "delta.decode_us")
    add(GlobalPartitionTable, "apply_delta", "gpt.apply_us")
    add(ClusterNode, "install_route", "fib.install_us")
    add(ClusterNode, "remove_route", "fib.install_us")
    return tracer


def wire_tracer() -> Tracer:
    """Tracer over the runtime controller's side of the wire.

    ``pack_frame_list`` is patched where the controller looks it up (it
    imported the name); ``decode_outcomes`` is looked up on the protocol
    module at call time.  Daemon work is not visible from this process:
    it is part of the ``route_frames`` residual, ``wire.rpc_us``.
    """
    tracer = Tracer()
    add = tracer.add
    add(RuntimeController, "route_frames", "wire.rpc_us")
    add(RuntimeController, "push_updates", "wire.update_rpc_us")
    add(runtime_controller, "pack_frame_list", "wire.encode_us", _count_sent)
    add(protocol, "decode_outcomes", "wire.decode_us", _count_received)
    return tracer


def per_layer(
    tracer: Tracer,
    frames: int,
    batches: int,
    updates: int,
    overhead_frac: float,
    forwarded: Optional[int] = None,
) -> Dict[str, float]:
    """Normalise a tracer's totals into the per-layer metrics.

    Data-path times are per frame, update-path times per update, wire
    times per 256-frame call; a layer a workload never enters reports 0.
    """
    s, c = tracer.self_s, tracer.counts
    out: Dict[str, float] = {}

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    for name in _DATA_NS:
        out[name] = share(s.get(name, 0.0) * 1e9, frames)
    out["unattributed_ns"] = share(
        tracer.unattributed_s.get("batch", 0.0) * 1e9, frames
    )
    out["controller.record_calls_per_frame"] = share(
        tracer.calls.get("controller.record_ns", 0), frames
    )
    out["route.remote_frac"] = share(
        c.get("route.remote", 0), c.get("route.frames", 0)
    )
    out["fib.miss_frac"] = share(c.get("fib.misses", 0), c.get("fib.lookups", 0))
    out["fastpath.spill_frac"] = share(
        c.get("parse.spilled", 0), c.get("parse.frames", 0)
    )
    for name in _UPDATE_US:
        out[name] = share(s.get(name, 0.0) * 1e6, updates)
    out["update.unattributed_us"] = share(
        tracer.unattributed_s.get("update", 0.0) * 1e6, updates
    )
    out["update.group_keys"] = share(
        c.get("group.keys", 0), tracer.calls.get("rib.group_contents_us", 0)
    )
    out["update.delta_bits"] = share(
        c.get("delta.bits", 0), tracer.calls.get("delta.encode_us", 0)
    )
    for name in ("wire.encode_us", "wire.decode_us", "wire.rpc_us"):
        out[name] = share(s.get(name, 0.0) * 1e6, batches)
    out["wire.update_rpc_us"] = share(
        s.get("wire.update_rpc_us", 0.0) * 1e6, updates
    )
    out["wire.bytes_per_frame"] = share(c.get("wire.bytes", 0), frames)
    out["wire.forward_frac"] = share(forwarded or 0, frames)
    out["trace.overhead_frac"] = overhead_frac
    out["trace.bookkeeping_frac"] = share(
        tracer.overhead_s, sum(tracer.wall_s.values())
    )
    return out
