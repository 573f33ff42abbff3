"""The LTE-to-Internet gateway: PFE + DPE over a cluster (paper §2, §6.2).

The gateway is the red box of Figure 1: downstream Internet frames enter at
any cluster node (ECMP), the Packet Forwarding Engine delivers them to
their flow's handling node, and the Data Plane Engine there charges the
flow, enforces access control, and re-encapsulates the packet into its
GTP-U tunnel toward the right base station.  Upstream packets are
decapsulated and forwarded to the peering routers.

ScaleBricks changes only the PFE (the ``architecture`` argument); the DPE
here is functional — real byte counters, a real ACL, real encapsulation —
so the PFE swap is exercised end to end at byte level.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.architectures import Architecture
from repro.cluster.cluster import Cluster, FibFactory, RouteResult
from repro.cluster.update import UpdateEngine
from repro.core.params import SetSepParams
from repro.epc import fastpath
from repro.epc.controller import AssignmentPolicy, EpcController, FlowRecord
from repro.epc.dpe import DataPlaneEngine
from repro.epc.packets import FlowTuple, extract_flow, parse_frame
from repro.epc.tunnels import GtpTunnelEndpoint
from repro.obs.metrics import LATENCY_BUCKETS_US, MetricsRegistry


def _unrouted(key: int, ingress: Optional[int], reason: str) -> RouteResult:
    """A frame dropped before routing (malformed, ACL-blocked)."""
    return RouteResult(
        key, -1 if ingress is None else int(ingress), (), 0, 0.0, None, None,
        True, reason,
    )


class ChargingLedger:
    """Per-bearer byte accounting (the gateway's ``stats`` attribute).

    ``bytes_charged`` maps TEID to total bytes — real state the audits
    compare, not a metrics view; the registry tracks only the
    cluster-wide total as ``gateway.bytes_charged``.  Packet and drop
    counts live exclusively in the gateway's metrics registry
    (``gateway.downstream.packets_in``, ``gateway.drops.acl``, ...).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self.bytes_charged: Dict[int, int] = {}
        self._c_bytes = self._registry.counter(
            "gateway.bytes_charged", "bytes charged across all bearers"
        )

    def charge(self, teid: int, size: int) -> None:
        """DPE charging function: account bytes to a bearer."""
        self.bytes_charged[teid] = self.bytes_charged.get(teid, 0) + size
        self._c_bytes.inc(size)

    def charge_many(self, teids: np.ndarray, sizes: np.ndarray) -> None:
        """Batched :meth:`charge`: one plain-int dict update per packet."""
        teids = np.asarray(teids, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        charged = self.bytes_charged
        for teid, size in zip(teids.tolist(), sizes.tolist()):
            charged[teid] = charged.get(teid, 0) + size
        self._c_bytes.inc(int(sizes.sum()))

    def __repr__(self) -> str:
        return (
            f"ChargingLedger(bearers={len(self.bytes_charged)}, "
            f"total={self._c_bytes.value})"
        )


class AggregateDpeView:
    """Read-only union over the per-node Data Plane Engines.

    Bearer state is sharded across nodes; operators (and tests) often want
    cluster-wide views — all CDRs, any bearer's context, total policed
    drops — without caring where a flow is homed.
    """

    def __init__(self, dpes) -> None:
        self._dpes = dpes

    @property
    def records(self):
        """All emitted CDRs, across every node."""
        out = []
        for dpe in self._dpes:
            out.extend(dpe.records)
        return out

    @property
    def policed_drops(self) -> int:
        """Total policer drops, across every node."""
        return sum(dpe.policed_drops for dpe in self._dpes)

    def context(self, teid: int):
        """The bearer's context, wherever it is homed."""
        for dpe in self._dpes:
            found = dpe.context(teid)
            if found is not None:
                return found
        return None

    def __len__(self) -> int:
        return sum(len(dpe) for dpe in self._dpes)

    def total_bytes(self) -> int:
        """All accounted bytes, across every node."""
        return sum(dpe.total_bytes() for dpe in self._dpes)


class EpcGateway:
    """A clustered LTE-to-Internet gateway.

    Args:
        architecture: the PFE's FIB architecture (the paper's variable).
        num_nodes: cluster size.
        gateway_ip: the gateway's tunnel-endpoint IPv4 address.
        policy: controller flow-assignment policy.
        gpt_params: SetSep configuration (ScaleBricks only).
        fib_factory: FIB table constructor (defaults to extended cuckoo).
        rate_limit_bytes_per_s: optional per-bearer token-bucket policing
            applied by the DPE (None disables policing).
        registry: metrics registry for packet/byte/drop counters and
            per-stage latency spans.  Unlike the pure lookup hot paths,
            the gateway defaults to a *live* private registry — the
            :class:`ChargingLedger` totals must keep counting — and
            shares it with the cluster and update engine it builds; pass
            :data:`repro.obs.NULL_REGISTRY` to disable instrumentation.

    The gateway keeps a simple logical clock (``now``, seconds) advanced
    by ``tick`` per processed packet so the DPE's state machine and
    policers behave deterministically; tests may set ``now`` directly.
    """

    def __init__(
        self,
        architecture: Architecture,
        num_nodes: int,
        gateway_ip: int,
        policy: AssignmentPolicy = AssignmentPolicy.ROUND_ROBIN,
        gpt_params: Optional[SetSepParams] = None,
        fib_factory: Optional[FibFactory] = None,
        rate_limit_bytes_per_s: Optional[float] = None,
        registry: Optional[MetricsRegistry] = None,
        fabric_backend: Optional[str] = None,
        ingress_policy: str = "random",
    ) -> None:
        self.architecture = architecture
        self.num_nodes = num_nodes
        self.gateway_ip = gateway_ip
        self.controller = EpcController(num_nodes, policy)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.stats = ChargingLedger(self.registry)
        r = self.registry
        self._c_down_in = r.counter("gateway.downstream.packets_in")
        self._c_down_tunnelled = r.counter("gateway.downstream.tunnelled")
        self._c_down_bytes = r.counter(
            "gateway.downstream.bytes", "L3 bytes accepted downstream"
        )
        self._c_up_in = r.counter("gateway.upstream.packets_in")
        self._c_up_forwarded = r.counter("gateway.upstream.forwarded")
        self._c_up_bytes = r.counter(
            "gateway.upstream.bytes", "inner L3 bytes forwarded upstream"
        )
        self._c_drop_unknown = r.counter("gateway.drops.unknown_flow")
        self._c_drop_tunnel = r.counter("gateway.drops.bad_tunnel")
        self._c_drop_acl = r.counter("gateway.drops.acl")
        self._c_drop_malformed = r.counter("gateway.drops.malformed")
        self._c_drop_policed = r.counter(
            "gateway.drops.policed", "packets rejected by a bearer policer"
        )
        self._h_fabric_hop = r.histogram(
            "gateway.fabric_hop_us", buckets=LATENCY_BUCKETS_US,
            description="modelled switch-fabric latency per routed packet",
        )
        self._c_fp_batches = r.counter(
            "gateway.fastpath.batches",
            "downstream batches routed through the vectorised fast path",
        )
        self._c_fp_frames = r.counter(
            "gateway.fastpath.frames",
            "frames processed by the vectorised fast path",
        )
        self._c_fp_spilled = r.counter(
            "gateway.fastpath.spilled_frames",
            "frames that fell back to the scalar codec "
            "(IPv4 options, degenerate batches)",
        )
        # One Data Plane Engine per node: bearer state lives where the
        # flow is handled (the pinning the whole paper exists to serve).
        self.dpes = [DataPlaneEngine() for _ in range(num_nodes)]
        self.dpe = AggregateDpeView(self.dpes)
        self.acl_blocked_sources: Set[int] = set()
        #: Nodes currently considered dead (liveness, not state loss):
        #: packets whose path touches one are dropped with reason
        #: ``node_down`` *before* any charging.  Maintained by failover /
        #: chaos tooling; empty in normal operation.
        self.down_nodes: Set[int] = set()
        self._c_drop_node_down = r.counter(
            "gateway.drops.node_down",
            "packets lost because their path crossed a dead node",
        )
        self.rate_limit_bytes_per_s = rate_limit_bytes_per_s
        self.now = 0.0
        self.tick = 1e-5
        self._gpt_params = gpt_params
        self._fib_factory = fib_factory
        self._fabric_backend = fabric_backend
        self._ingress_policy = ingress_policy
        self.cluster: Optional[Cluster] = None
        self.updates: Optional[UpdateEngine] = None

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def connect(
        self, flow: FlowTuple, base_station_ip: int, region: int = 0
    ) -> FlowRecord:
        """Establish a bearer; if the data plane is live, push the update."""
        record = self.controller.establish_bearer(flow, base_station_ip, region)
        self.dpes[record.handling_node].open_bearer(
            record.teid,
            now=self.now,
            rate_limit_bytes_per_s=self.rate_limit_bytes_per_s,
        )
        if self.updates is not None:
            self.updates.insert_flow(
                record.key, record.handling_node, record.teid
            )
        return record

    def disconnect(self, flow: FlowTuple) -> bool:
        """Tear a bearer down (control + data plane); emits its CDR."""
        record = self.controller.teardown_bearer(flow)
        if record is None:
            return False
        self.dpes[record.handling_node].close_bearer(record.teid, now=self.now)
        if self.updates is not None:
            self.updates.remove_flow(record.key)
        return True

    def rehome_flow(self, flow: FlowTuple, new_node: int) -> FlowRecord:
        """Move a live bearer to another handling node (§7 mobility).

        The three pieces that pin a flow move together: the controller
        record, the FIB entry (+ GPT delta, via the §4.5 update path) and
        the DPE context with its charging counters — billing continues
        seamlessly on the new node.
        """
        if not 0 <= new_node < self.num_nodes:
            raise ValueError("new_node out of range")
        record = self.controller.record_for_key(flow.key())
        if record is None:
            raise KeyError(f"no bearer for flow {flow}")
        if record.handling_node == new_node:
            return record
        context = self.dpes[record.handling_node].export_context(record.teid)
        self.dpes[new_node].import_context(context)
        moved = self.controller.rehome(flow, new_node)
        if self.updates is not None:
            self.updates.insert_flow(moved.key, new_node, moved.teid)
        return moved

    def start(self) -> None:
        """Build the forwarding plane from the controller's flow table."""
        records = list(self.controller.flows.values())
        keys = [r.key for r in records]
        nodes = [r.handling_node for r in records]
        teids = [r.teid for r in records]
        self.cluster = Cluster.build(
            self.architecture,
            self.num_nodes,
            np.asarray(keys, dtype=np.uint64),
            nodes,
            teids,
            fib_factory=self._fib_factory,
            gpt_params=self._gpt_params,
            registry=self.registry,
            fabric_backend=self._fabric_backend,
            ingress_policy=self._ingress_policy,
        )
        self.updates = UpdateEngine(self.cluster)

    def _require_cluster(self) -> Cluster:
        if self.cluster is None:
            raise RuntimeError("gateway not started; call start() first")
        return self.cluster

    # ------------------------------------------------------------------
    # Data plane: downstream (Internet -> mobile)
    # ------------------------------------------------------------------

    def process_downstream(
        self, frame: bytes, ingress: Optional[int] = None
    ) -> Tuple[RouteResult, Optional[bytes]]:
        """Forward one downstream frame.

        Returns the PFE routing outcome and, when the packet was accepted,
        the GTP-U-encapsulated packet headed for the base station.
        """
        cluster = self._require_cluster()
        self._c_down_in.inc()
        with self.registry.span("downstream"):
            with self.registry.span("ingress"):
                try:
                    _eth, l3 = parse_frame(frame)
                    flow, ip_header, _l4 = extract_flow(l3)
                except ValueError:
                    # A production PFE drops garbage at line rate; it
                    # never dies.
                    self._c_drop_malformed.inc()
                    return _unrouted(0, ingress, "malformed"), None

                if flow.src_ip in self.acl_blocked_sources:
                    self._c_drop_acl.inc()
                    return _unrouted(flow.key(), ingress, "acl"), None

            with self.registry.span("pfe_lookup"):
                result = cluster.route(flow.key(), ingress)
            if self.down_nodes and any(
                node in self.down_nodes for node in result.path
            ):
                self._c_drop_node_down.inc()
                return result.as_drop("node_down"), None
            if result.dropped:
                self._c_drop_unknown.inc()
                return result, None
            self._h_fabric_hop.observe(result.latency_us)

            # DPE at the handling node: state/policing, charge, decrement
            # TTL, re-encapsulate.
            with self.registry.span("dpe"):
                record = self.controller.record_for_key(flow.key())
                assert record is not None and result.value == record.teid
                self.now += self.tick
                if not self.dpes[record.handling_node].process(
                    record.teid, len(l3), downlink=True, now=self.now
                ):
                    self._c_drop_policed.inc()
                    return result.as_drop("policed"), None
                self.stats.charge(record.teid, len(l3))
                self._c_down_bytes.inc(len(l3))

            with self.registry.span("egress"):
                forwarded_inner = (
                    ip_header.decrement_ttl().pack() + l3[ip_header.SIZE:]
                )
                endpoint = GtpTunnelEndpoint(
                    local_ip=self.gateway_ip, peer_ip=record.base_station_ip
                )
                tunnelled = endpoint.encapsulate(record.teid, forwarded_inner)
            self._c_down_tunnelled.inc()
            return result, tunnelled

    def process_downstream_batch(
        self,
        frames: Sequence[bytes],
        ingress: Optional[Sequence[Optional[int]]] = None,
    ) -> List[Tuple[RouteResult, Optional[bytes]]]:
        """Forward many downstream frames (batch query surface).

        Each element of the result is exactly what
        :meth:`process_downstream` returns for the matching frame — same
        output bytes, charging, counters and RNG trajectory — but the
        whole batch flows through the vectorised codec
        (:mod:`repro.epc.fastpath`), one batched cluster lookup, and
        per-node grouped DPE charging.  The optional ``ingress`` sequence
        pins per-frame ingress nodes.  Batches containing a frame the
        scalar path would *raise* on (TTL 0, oversized inner packet) are
        replayed through :meth:`process_downstream` so the exception
        surfaces identically.
        """
        cluster = self._require_cluster()
        if ingress is not None and len(ingress) != len(frames):
            raise ValueError("frames and ingress lengths differ")
        n = len(frames)
        if n == 0:
            return []
        parsed = fastpath.parse_frames(frames)
        if parsed.degenerate:
            self._c_fp_spilled.inc(n)
            return self._process_downstream_scalar(frames, ingress)
        self._c_fp_batches.inc()
        self._c_fp_frames.inc(n)
        if parsed.scalar_spills:
            self._c_fp_spilled.inc(parsed.scalar_spills)

        self._c_down_in.inc(n)
        results: List[Optional[Tuple[RouteResult, Optional[bytes]]]] = (
            [None] * n
        )

        def drop_early(i: int, key: int, reason: str) -> None:
            node = ingress[i] if ingress is not None else None
            results[i] = (_unrouted(key, node, reason), None)

        with self.registry.span("downstream"):
            with self.registry.span("ingress"):
                malformed_idx = np.flatnonzero(parsed.malformed)
                if malformed_idx.size:
                    self._c_drop_malformed.inc(int(malformed_idx.size))
                    for i in malformed_idx.tolist():
                        drop_early(i, 0, "malformed")

                acl = np.zeros(n, dtype=bool)
                if self.acl_blocked_sources:
                    blocked = np.fromiter(
                        self.acl_blocked_sources,
                        dtype=np.int64,
                        count=len(self.acl_blocked_sources),
                    )
                    acl = parsed.valid & np.isin(parsed.src_ip, blocked)
                    acl_idx = np.flatnonzero(acl)
                    if acl_idx.size:
                        self._c_drop_acl.inc(int(acl_idx.size))
                        for i in acl_idx.tolist():
                            drop_early(i, int(parsed.keys[i]), "acl")

            routed_idx = np.flatnonzero(parsed.valid & ~acl)
            with self.registry.span("pfe_lookup"):
                if ingress is None:
                    ing_routed = cluster.pick_ingress_batch(routed_idx.size)
                else:
                    pinned = [ingress[int(i)] for i in routed_idx]
                    ing_routed = np.fromiter(
                        (
                            cluster.pick_ingress() if node is None
                            else int(node)
                            for node in pinned
                        ),
                        dtype=np.int64,
                        count=len(pinned),
                    )
                batch = cluster.route_batch(
                    parsed.keys[routed_idx], ing_routed
                )
            # One RouteResult per routed frame, built once from the
            # batch's columns; only node-down and policed frames (rare)
            # are replaced by a dropped variant.
            routed = list(batch.results)

            node_down = np.zeros(routed_idx.size, dtype=bool)
            if self.down_nodes:
                for j, result in enumerate(routed):
                    if any(node in self.down_nodes for node in result.path):
                        node_down[j] = True
                        routed[j] = result.as_drop("node_down")
                self._c_drop_node_down.inc(int(node_down.sum()))

            unknown = batch.dropped & ~node_down
            self._c_drop_unknown.inc(int(unknown.sum()))

            accepted_j = np.flatnonzero(~batch.dropped & ~node_down)
            self._h_fabric_hop.observe_many(batch.latencies_us[accepted_j])

            with self.registry.span("dpe"):
                controller = self.controller
                frame_idx = routed_idx[accepted_j]
                teids = batch.values[accepted_j]
                controller.check_teids(parsed.keys[frame_idx], teids)
                handling = controller.node_by_teid[teids]
                # ``cumsum`` accumulates sequentially, so every tick is
                # bit-identical to the scalar path's ``now += tick``.
                ticks = np.full(teids.size + 1, self.tick)
                ticks[0] = self.now
                nows = np.cumsum(ticks)
                self.now = float(nows[-1])
                nows = nows[1:]
                sizes = parsed.l3_len[frame_idx]
                ok = np.zeros(teids.size, dtype=bool)
                for node_id in np.flatnonzero(np.bincount(handling)).tolist():
                    mask = handling == node_id
                    ok[mask] = self.dpes[node_id].process_batch(
                        teids[mask], sizes[mask], downlink=True,
                        nows=nows[mask],
                    )

                policed_t = np.flatnonzero(~ok)
                if policed_t.size:
                    self._c_drop_policed.inc(int(policed_t.size))
                    for j in accepted_j[policed_t].tolist():
                        routed[j] = routed[j].as_drop("policed")
                charged_t = np.flatnonzero(ok)
                self.stats.charge_many(teids[charged_t], sizes[charged_t])
                self._c_down_bytes.inc(int(sizes[charged_t].sum()))

            with self.registry.span("egress"):
                charged_teids = teids[charged_t]
                tunnelled = fastpath.encapsulate_batch(
                    parsed, frame_idx[charged_t], charged_teids,
                    controller.base_station_by_teid[charged_teids],
                    self.gateway_ip,
                )
            self._c_down_tunnelled.inc(int(charged_t.size))
            packets: List[Optional[bytes]] = [None] * len(routed)
            for j, packet in zip(accepted_j[charged_t].tolist(), tunnelled):
                packets[j] = packet

        if len(routed) == n:
            return list(zip(routed, packets))
        for i, pair in zip(routed_idx.tolist(), zip(routed, packets)):
            results[i] = pair
        return results  # type: ignore[return-value]

    def _process_downstream_scalar(
        self,
        frames: Sequence[bytes],
        ingress: Optional[Sequence[Optional[int]]],
    ) -> List[Tuple[RouteResult, Optional[bytes]]]:
        """Per-frame reference path (and exception-faithful fallback)."""
        if ingress is None:
            return [self.process_downstream(frame) for frame in frames]
        return [
            self.process_downstream(frame, node)
            for frame, node in zip(frames, ingress)
        ]

    # ------------------------------------------------------------------
    # Data plane: upstream (mobile -> Internet)
    # ------------------------------------------------------------------

    def process_upstream(self, outer_packet: bytes) -> Optional[bytes]:
        """Decapsulate one upstream GTP-U packet toward the Internet.

        Upstream packets arrive at the flow's handling node directly (the
        aggregation routers honour the assignment; §2), so no cluster
        routing is involved — only tunnel validation and DPE work.
        """
        self._c_up_in.inc()
        with self.registry.span("upstream"):
            try:
                teid, inner, _outer = GtpTunnelEndpoint.decapsulate(
                    outer_packet
                )
            except ValueError:
                self._c_drop_tunnel.inc()
                return None
            if teid not in self.controller.teids:
                self._c_drop_tunnel.inc()
                return None
            try:
                flow, ip_header, _rest = extract_flow(inner)
            except ValueError:
                self._c_drop_malformed.inc()
                return None
            if flow.src_ip in self.acl_blocked_sources:
                self._c_drop_acl.inc()
                return None
            record = self.controller.record_for_teid(teid)
            if record is None:
                self._c_drop_tunnel.inc()
                return None
            if record.handling_node in self.down_nodes:
                self._c_drop_node_down.inc()
                return None
            self.now += self.tick
            if not self.dpes[record.handling_node].process(
                teid, len(inner), downlink=False, now=self.now
            ):
                self._c_drop_policed.inc()
                return None
            self.stats.charge(teid, len(inner))
            self._c_up_bytes.inc(len(inner))
            self._c_up_forwarded.inc()
            return ip_header.decrement_ttl().pack() + inner[ip_header.SIZE:]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def memory_report(self) -> List[Dict[str, int]]:
        """Per-node forwarding-state footprint."""
        return self._require_cluster().memory_report()

    def __repr__(self) -> str:
        return (
            f"EpcGateway(arch={self.architecture.value}, "
            f"nodes={self.num_nodes}, bearers={len(self.controller)})"
        )
