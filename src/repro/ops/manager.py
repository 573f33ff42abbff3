"""ClusterOps: the management facade the operator API serves.

One :class:`ClusterOps` owns a full live deployment — the daemon child
processes (:class:`~repro.runtime.launcher.LocalRuntime`), the
controller driving them over sockets
(:class:`~repro.runtime.controller.RuntimeController`) and the
in-process shadow :class:`~repro.epc.gateway.EpcGateway` the
differential audit compares against.  Every public method is one
management operation with a JSON-ready return, and every error is typed
so the HTTP layer can map it to a status code without string matching:

* :class:`NotFoundError` (→ 404) — the named node/flow does not exist;
* :class:`ConflictError` (→ 409) — the operation is valid but refused
  in the cluster's current state (fencing an ALIVE node, draining a
  dead one, re-killing a corpse);
* :class:`BadRequestError` (→ 400) — the request itself is malformed.

All methods serialise through one re-entrant lock: the HTTP server is
threaded, and both the socket protocol (strict request/response per
connection) and the shadow gateway (plain Python objects) would corrupt
under interleaved mutation.  Concurrent API calls therefore execute in
*some* sequential order — the test suite asserts exactly that.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.architectures import Architecture
from repro.core import serialize
from repro.epc.fastpath import OUTER_SIZE
from repro.epc.gateway import EpcGateway
from repro.epc.packets import parse_ip
from repro.epc.traffic import FlowGenerator
from repro.obs.exposition import prometheus_text
from repro.obs.metrics import MetricsRegistry
from repro.runtime.controller import OpResult, RuntimeController
from repro.runtime.launcher import (
    DEMO_GATEWAY_IP,
    LocalRuntime,
    _compare_frames,
)
from repro.runtime.liveness import NodeState
from repro.runtime.protocol import OP_INSERT, OP_REMOVE, UpdateOp
from repro.runtime.replication import ReplicaGroup, ReplicaGuard


class OpsError(Exception):
    """Base of the management errors; carries an HTTP status."""

    status = 500


class BadRequestError(OpsError):
    """The request is malformed (→ 400)."""

    status = 400


class NotFoundError(OpsError):
    """The named node or flow does not exist (→ 404)."""

    status = 404


class ConflictError(OpsError):
    """Valid operation, wrong cluster state (→ 409)."""

    status = 409


class LeaderRedirectError(OpsError):
    """The addressed replica is not the leader (→ 307 + Location).

    Mutating verbs on a replicated control plane must go through the
    current leaseholder; a follower answers with the leader's identity
    and — when that replica has registered an API endpoint — a URL the
    client can retry against, HTTP-redirect style.
    """

    status = 307

    def __init__(self, leader: int, location: Optional[tuple]) -> None:
        where = (
            f"http://{location[0]}:{location[1]}" if location
            else "an unregistered endpoint"
        )
        super().__init__(f"not the leader; replica {leader} leads at {where}")
        self.leader = leader
        self.location = location


class OpsReplication:
    """Replication state for a :class:`ClusterOps`: group + op log.

    ``group`` is the in-process, manual-clock replica group the ops
    facade replicates mutating verbs through (deterministic — no
    wall-clock elections); ``endpoints`` maps replica id to the HTTP
    ``(host, port)`` an :class:`~repro.ops.api.OpsApiServer` bound for
    it; ``oplog`` records each committed verb's outcome by log index,
    and each replica's read view is truncated at *that replica's*
    commit index — a follower never shows an op it has not committed.
    """

    def __init__(self, group: ReplicaGroup) -> None:
        self.group = group
        self.endpoints: Dict[int, tuple] = {}
        self.oplog: Dict[int, Dict[str, object]] = {}


class ClusterOps:
    """Lock-serialised management wrapper around one live cluster.

    Build one with :meth:`launch` (spawns everything) or construct
    directly from pre-built pieces (the tests do, to reach into the
    internals).  ``close()`` — or use as a context manager — shuts the
    cluster down and accounts for every child process.
    """

    def __init__(
        self,
        runtime: LocalRuntime,
        controller: RuntimeController,
        gateway: EpcGateway,
        generator: FlowGenerator,
        live_flows: List,
        seed: int = 7,
        replication: Optional[OpsReplication] = None,
    ) -> None:
        self.runtime = runtime
        self.controller = controller
        self.gateway = gateway
        self.generator = generator
        self.live_flows = live_flows
        self.seed = seed
        self.replication = replication
        self._lock = threading.RLock()
        self._traffic_round = 0
        self._churn_round = 0
        # Per-node, per-TEID bytes charged so far (from shadow routing):
        # a killed/fenced node's slice dies with it, and the audit must
        # subtract it from the shadow's global ledger (§7 fate sharing).
        self._charges_by_node: Dict[int, Dict[int, int]] = {}
        # Charges gone for good: a drained daemon shuts down with its
        # counters (its node id may be reused by a later join, so the
        # slice is folded in here at drain time, not derived from ids).
        self._lost_charges: Dict[int, int] = {}
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def launch(
        cls,
        num_nodes: int = 4,
        seed: int = 7,
        flows: int = 2000,
        miss_threshold: int = 3,
        fence_after: Optional[int] = None,
        ping_timeout: float = 0.5,
        replicas: int = 0,
    ) -> "ClusterOps":
        """Spawn daemons, build and bootstrap the shadow, wire it all up.

        With ``replicas`` > 0, the facade also runs an in-process
        replica group (manual clock — elections are deterministic):
        mutating verbs replicate through its log before executing, and
        the controller's liveness/fencing verbs are guarded by the
        group's lease so only the current leader may fence.
        """
        replication: Optional[OpsReplication] = None
        guard = None
        if replicas:
            group = ReplicaGroup(num=replicas, seed=seed)
            group.elect()
            replication = OpsReplication(group)
            guard = ReplicaGuard(group)
        runtime = LocalRuntime(num_nodes).start()
        try:
            gateway = EpcGateway(
                Architecture.SCALEBRICKS,
                num_nodes,
                parse_ip(DEMO_GATEWAY_IP),
                registry=MetricsRegistry(),
            )
            generator = FlowGenerator(seed)
            live_flows = generator.populate(gateway, flows)
            gateway.start()
            controller = RuntimeController(
                runtime.addresses,
                miss_threshold=miss_threshold,
                ping_timeout=ping_timeout,
                fence_after=fence_after,
                guard=guard,
            )
            controller.killer = runtime.kill
            controller.connect()
            controller.bootstrap_from_gateway(gateway)
        except BaseException:
            runtime.stop()
            raise
        return cls(runtime, controller, gateway, generator, live_flows,
                   seed=seed, replication=replication)

    def close(self) -> Dict[str, object]:
        """Shut every daemon down; returns the leak accounting."""
        with self._lock:
            if self._closed:
                return {"acked": [], "leaked_processes": 0, "closed": True}
            self._closed = True
            acked = self.controller.shutdown_all()
            self.runtime.stop()
            leaked = self.runtime.leaked()
            return {
                "acked": acked,
                "leaked_processes": len(leaked),
                "leaked_nodes": leaked,
                "closed": True,
            }

    def __enter__(self) -> "ClusterOps":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # -- error translation ---------------------------------------------

    def _node_or_404(self, node_id: int) -> int:
        if node_id not in self.controller.monitor.tracked() and not (
            0 <= node_id < self.controller.num_nodes
        ):
            raise NotFoundError(f"node {node_id} does not exist")
        return node_id

    def _run(self, fn) -> OpResult:
        """Run a controller verb, translating ValueError to 409."""
        try:
            return fn()
        except ValueError as exc:
            raise ConflictError(str(exc)) from exc

    # -- read side -----------------------------------------------------

    def cluster(self) -> Dict[str, object]:
        """The ``GET /v1/cluster`` document."""
        with self._lock:
            snapshot = self.controller.snapshot()
            snapshot["seed"] = self.seed
            snapshot["live_flows"] = len(self.live_flows)
            snapshot["architecture"] = "scalebricks"
            if self.replication is not None:
                group = self.replication.group
                snapshot["replication"] = {
                    "leader": group.leader(),
                    "term": max(
                        r.term for r in group.replicas.values()
                    ),
                    "replicas": group.num,
                }
            return snapshot

    def nodes(self) -> List[Dict[str, object]]:
        """The ``GET /v1/nodes`` listing (every node, even dead ones)."""
        with self._lock:
            monitor = self.controller.monitor
            down = self.controller.down
            out = []
            for node_id in range(self.controller.num_nodes):
                tracked = node_id in monitor.tracked()
                entry: Dict[str, object] = {
                    "node": node_id,
                    "address": list(self.controller.addresses[node_id]),
                    "state": (
                        monitor.state(node_id).value if tracked else "dead"
                    ),
                    "misses": monitor.misses(node_id) if tracked else 0,
                    "repaired": node_id in down,
                }
                out.append(entry)
            return out

    def node(self, node_id: int) -> Dict[str, object]:
        """The ``GET /v1/nodes/<id>`` document (liveness + daemon STATUS)."""
        with self._lock:
            self._node_or_404(node_id)
            monitor = self.controller.monitor
            tracked = node_id in monitor.tracked()
            doc: Dict[str, object] = {
                "node": node_id,
                "address": list(self.controller.addresses[node_id]),
                "state": monitor.state(node_id).value if tracked else "dead",
                "misses": monitor.misses(node_id) if tracked else 0,
                "repaired": node_id in self.controller.down,
            }
            if node_id not in self.controller.down and (
                not tracked or monitor.state(node_id) is not NodeState.DEAD
            ):
                try:
                    doc["status"] = self.controller.status_node(node_id)
                except (OSError, ValueError):
                    doc["status"] = None
            else:
                doc["status"] = None
            return doc

    def flow(self, teid: int) -> Dict[str, object]:
        """The ``GET /v1/flows/<teid>`` document."""
        with self._lock:
            record = self.gateway.controller.record_for_teid(teid)
            if record is None:
                raise NotFoundError(f"no flow with teid {teid}")
            doc: Dict[str, object] = {
                "teid": record.teid,
                "key": record.key,
                "handling_node": record.handling_node,
                "base_station_ip": record.base_station_ip,
            }
            shadow_bytes = int(
                self.gateway.stats.bytes_charged.get(record.teid, 0)
            )
            doc["shadow_bytes_charged"] = shadow_bytes
            return doc

    def metrics_text(self) -> str:
        """Prometheus exposition of controller + shadow registries."""
        with self._lock:
            return prometheus_text(
                [self.controller.registry, self.gateway.registry]
            )

    def recent_ops(self) -> List[Dict[str, object]]:
        """Completed management commands, oldest first."""
        return self.controller.commands.recent()

    # -- replicated control plane --------------------------------------

    def register_endpoint(self, replica: int, host: str, port: int) -> None:
        """Record the HTTP endpoint an API server bound for a replica."""
        rep = self.replication
        if rep is None:
            raise ConflictError("replication is not enabled")
        if not 0 <= replica < rep.group.num:
            raise NotFoundError(f"no replica {replica}")
        with self._lock:
            rep.endpoints[replica] = (str(host), int(port))

    def replication_status(
        self, replica: Optional[int] = None
    ) -> Dict[str, object]:
        """The ``GET /v1/replication`` document (group + endpoints)."""
        rep = self.replication
        if rep is None:
            return {"enabled": False}
        with self._lock:
            doc = rep.group.status()
            doc["enabled"] = True
            doc["endpoints"] = {
                str(rid): list(addr) for rid, addr in rep.endpoints.items()
            }
            doc["bound_replica"] = replica
            if replica is not None:
                doc["commit_index_here"] = (
                    rep.group.replicas[replica].commit_index
                )
            return doc

    def committed_ops(
        self, replica: Optional[int] = None
    ) -> List[Dict[str, object]]:
        """Replicated verbs visible from one replica's commit index.

        A follower only reports ops it has itself committed — the
        read-your-committed-writes guarantee the failover tests lean
        on: once a mutation is acked, *every* replica eventually shows
        it, and no replica ever shows an uncommitted one.
        """
        rep = self.replication
        if rep is None:
            return []
        with self._lock:
            group = rep.group
            if replica is None:
                replica = group.leader()
                if replica is None:
                    return []
            commit = group.replicas[replica].commit_index
            return [
                rep.oplog[index]
                for index in sorted(rep.oplog)
                if index <= commit
            ]

    def fail_leader(self) -> Dict[str, object]:
        """Depose the current leader (crash → re-elect → restart).

        The deterministic failover verb: the old leader loses its
        lease, a follower wins the next term, and the old process
        rejoins as a follower and catches up.
        """
        rep = self.replication
        if rep is None:
            raise ConflictError("replication is not enabled")
        with self._lock:
            info = rep.group.depose()
            return {"verb": "fail_leader", **info}

    def execute_verb(self, verb: str, params: Dict) -> Dict[str, object]:
        """Dispatch one named mutating verb (the replicated log's body)."""
        if verb == "drain":
            return self.drain(int(params["node"]))
        if verb == "join":
            node = params.get("node")
            return self.join(None if node is None else int(node))
        if verb == "kill":
            return self.kill(int(params["node"]))
        if verb == "fence":
            return self.fence(int(params["node"]))
        if verb == "repair":
            return self.repair(int(params["node"]))
        if verb == "suspend":
            return self.suspend(int(params["node"]))
        if verb == "resume":
            return self.resume(int(params["node"]))
        if verb == "churn":
            return self.churn(
                connects=int(params.get("connects", 0)),
                rehomes=int(params.get("rehomes", 0)),
                disconnects=int(params.get("disconnects", 0)),
            )
        if verb == "traffic":
            return self.traffic(packets=int(params.get("packets", 200)))
        if verb == "poll":
            return self.poll(rounds=int(params.get("rounds", 1)))
        raise BadRequestError(f"unknown verb {verb!r}")

    def submit_via(
        self, replica: Optional[int], verb: str, params: Dict
    ) -> Dict[str, object]:
        """Run a mutating verb through the replicated log.

        The addressed ``replica`` must hold the lease — a follower
        raises :class:`LeaderRedirectError` (→ 307 + the leader's
        endpoint) without touching the cluster.  On the leader the
        verb is committed to the log first, then executed; the outcome
        (success or typed failure) is recorded in the op log under its
        log index so every replica's committed view converges on it.
        """
        rep = self.replication
        if rep is None:
            return self.execute_verb(verb, params)
        with self._lock:
            group = rep.group
            leader = group.leader()
            if leader is None:
                leader = group.elect()
            if replica is not None and leader != replica:
                raise LeaderRedirectError(
                    leader, rep.endpoints.get(leader)
                )
            payload = {k: v for k, v in params.items() if v is not None}
            meta = group.submit(verb, payload)
            # Majority commit acked the entry; push the commit index to
            # every live follower too, so a committed op is immediately
            # readable from any replica's API endpoint.
            group.run_until(lambda: all(
                group.replicas[i].commit_index >= meta["index"]
                for i in group.live()
            ))
            record: Dict[str, object] = {
                "index": meta["index"],
                "term": meta["term"],
                "cid": meta["cid"],
                "verb": verb,
                "params": payload,
            }
            try:
                result = self.execute_verb(verb, params)
            except OpsError as exc:
                record["error"] = str(exc)
                record["status"] = exc.status
                rep.oplog[meta["index"]] = record
                raise
            record["result"] = result
            rep.oplog[meta["index"]] = record
            out = dict(result)
            out["replication"] = {
                "index": meta["index"], "term": meta["term"],
            }
            return out

    # -- mutating verbs ------------------------------------------------

    def drain(self, node_id: int) -> Dict[str, object]:
        """Gracefully remove a node (highest-numbered only)."""
        with self._lock:
            self._node_or_404(node_id)
            result = self._run(
                lambda: self.controller.drain_node(self.gateway, node_id)
            )
            # The leaver's charging counters shut down with it; fold its
            # slice into the lost ledger before a join reuses the id.
            for teid, total in self._charges_by_node.pop(
                result.node, {}
            ).items():
                self._lost_charges[teid] = (
                    self._lost_charges.get(teid, 0) + total
                )
            return result.to_dict()

    def join(self, node_id: Optional[int] = None) -> Dict[str, object]:
        """Spawn one more daemon and grow the cluster onto it.

        ``node_id``, when given, must equal the id the newcomer will
        receive (the current node count) — anything else is a 409, so
        ``POST /v1/nodes/<id>/join`` can never grow the wrong cluster.
        """
        with self._lock:
            expected = self.controller.num_nodes
            if node_id is not None and node_id != expected:
                raise ConflictError(
                    f"next join creates node {expected}, not {node_id}"
                )
            address = self.runtime.add_node()
            result = self._run(
                lambda: self.controller.join_node(self.gateway, address)
            )
            return result.to_dict()

    def kill(self, node_id: int) -> Dict[str, object]:
        """SIGKILL a daemon (no repair — detection is the point)."""
        with self._lock:
            self._node_or_404(node_id)
            result = self._run(lambda: self.controller.kill_node(node_id))
            return result.to_dict()

    def fence(self, node_id: int) -> Dict[str, object]:
        """Force-kill a SUSPECT daemon and repair immediately."""
        with self._lock:
            self._node_or_404(node_id)
            result = self._run(
                lambda: self.controller.fence_node(node_id, self.gateway)
            )
            return result.to_dict()

    def repair(self, node_id: int) -> Dict[str, object]:
        """Run §7 failure repair for a node already declared DEAD."""
        with self._lock:
            self._node_or_404(node_id)
            if self.controller.monitor.state(node_id) is not NodeState.DEAD:
                raise ConflictError(
                    f"node {node_id} is not DEAD; repair follows detection"
                )
            result = self._run(
                lambda: self.controller.handle_node_failure(
                    node_id, self.gateway
                )
            )
            return result.to_dict()

    def suspend(self, node_id: int) -> Dict[str, object]:
        """SIGSTOP a daemon — the grey-failure (SUSPECT) maker."""
        with self._lock:
            self._node_or_404(node_id)
            if node_id in self.controller.down:
                raise ConflictError(f"node {node_id} is already down")
            self.runtime.suspend(node_id)
            return {
                "verb": "suspend", "node": node_id, "accepted": True,
                "epoch": self.controller.epoch, "affected_flows": 0,
                "detail": {},
            }

    def resume(self, node_id: int) -> Dict[str, object]:
        """SIGCONT a suspended daemon (the grey failure clears)."""
        with self._lock:
            self._node_or_404(node_id)
            if node_id in self.controller.down:
                raise ConflictError(f"node {node_id} is already down")
            self.runtime.resume(node_id)
            return {
                "verb": "resume", "node": node_id, "accepted": True,
                "epoch": self.controller.epoch, "affected_flows": 0,
                "detail": {},
            }

    # -- liveness / policy ---------------------------------------------

    def poll(self, rounds: int = 1) -> Dict[str, object]:
        """Heartbeat rounds plus the auto-fence policy sweep.

        After each round, any node past the monitor's ``fence_after``
        threshold is fenced (force-kill + §7 repair) — the policy knob
        the operator API exposes at launch.
        """
        if rounds < 1:
            raise BadRequestError("rounds must be positive")
        with self._lock:
            newly_dead: List[int] = []
            fenced: List[int] = []
            for _ in range(rounds):
                newly_dead.extend(self.controller.poll_liveness())
                for candidate in self.controller.monitor.fence_candidates():
                    self.controller.fence_node(candidate, self.gateway)
                    fenced.append(candidate)
            return {
                "rounds": rounds,
                "newly_dead": newly_dead,
                "fenced": fenced,
                "states": {
                    str(n): self.controller.monitor.state(n).value
                    for n in self.controller.monitor.tracked()
                },
            }

    # -- differential traffic / churn / audit --------------------------

    def traffic(self, packets: int = 200) -> Dict[str, object]:
        """One seeded differential traffic batch through both worlds.

        Frames are generated from the live flow population, routed
        through the socket cluster and the shadow gateway with pinned
        per-frame ingress, and compared frame by frame.  The per-node
        charge ledger feeds the §7 audit later.
        """
        if packets < 1:
            raise BadRequestError("packets must be positive")
        with self._lock:
            if not self.live_flows:
                raise ConflictError("no live flows to generate traffic from")
            self._traffic_round += 1
            rng = np.random.default_rng(
                self.seed * 65537 + 1000 + self._traffic_round
            )
            frames = self.generator.packet_stream(self.live_flows, packets)
            live = [
                n for n in range(self.controller.num_nodes)
                if n not in self.controller.down
            ]
            ingress = [int(live[i]) for i in rng.integers(
                len(live), size=len(frames)
            )]
            shadow = self.gateway.process_downstream_batch(frames, ingress)
            wire = self.controller.route_frames(frames, ingress)
            for result, out in shadow:
                if out is None:
                    continue
                node = result.handled_by
                teid = int(result.value)
                ledger = self._charges_by_node.setdefault(node, {})
                ledger[teid] = ledger.get(teid, 0) + len(out) - OUTER_SIZE
            summary = _compare_frames(shadow, wire)
            summary["round"] = self._traffic_round
            return summary

    def churn(
        self, connects: int = 0, rehomes: int = 0, disconnects: int = 0
    ) -> Dict[str, object]:
        """A seeded §4.5 update batch (``POST /v1/updates``).

        Connects admit fresh bearers, rehomes move existing ones to a
        random live node, disconnects tear bearers down — mirrored into
        the shadow first, then pushed over the wire through the owner
        protocol, exactly like the harness's update storm.
        """
        total = connects + rehomes + disconnects
        if total < 1:
            raise BadRequestError(
                "need at least one connect/rehome/disconnect"
            )
        with self._lock:
            self._churn_round += 1
            rng = np.random.default_rng(
                self.seed * 65537 + 2000 + self._churn_round
            )
            live = [
                n for n in range(self.controller.num_nodes)
                if n not in self.controller.down
            ]
            ops: List[UpdateOp] = []
            for _ in range(connects):
                flow = self.generator.flows(1)[0]
                record = self.gateway.connect(
                    flow,
                    self.generator.base_station_for(flow),
                    self.generator.region_for(flow),
                )
                ops.append(UpdateOp(
                    OP_INSERT, record.key, record.handling_node,
                    record.teid, record.base_station_ip,
                ))
                self.live_flows.append(flow)
            done_rehomes = 0
            for _ in range(rehomes):
                if not self.live_flows:
                    break
                flow = self.live_flows[
                    int(rng.integers(len(self.live_flows)))
                ]
                target = int(live[int(rng.integers(len(live)))])
                record = self.gateway.controller.record_for_key(flow.key())
                assert record is not None
                if record.handling_node == target:
                    continue
                moved = self.gateway.rehome_flow(flow, target)
                ops.append(UpdateOp(
                    OP_INSERT, moved.key, target, moved.teid,
                    moved.base_station_ip,
                ))
                done_rehomes += 1
            done_disconnects = 0
            for _ in range(disconnects):
                if len(self.live_flows) <= 1:
                    break
                index = int(rng.integers(len(self.live_flows)))
                flow = self.live_flows.pop(index)
                assert self.gateway.disconnect(flow)
                ops.append(UpdateOp(OP_REMOVE, flow.key()))
                done_disconnects += 1
            totals = self.controller.push_updates(ops)
            totals["connects"] = connects
            totals["rehomes"] = done_rehomes
            totals["disconnects"] = done_disconnects
            totals["live_flows"] = len(self.live_flows)
            return totals

    def audit(self) -> Dict[str, object]:
        """The global differential: charging dicts and GPT replica CRCs.

        Charges a dead node took to its grave are subtracted from the
        shadow's ledger (fate sharing, §7) before comparing against the
        wire's per-daemon totals.
        """
        with self._lock:
            lost: Dict[int, int] = dict(self._lost_charges)
            for node_id in self.controller.down:
                for teid, total in self._charges_by_node.get(
                    node_id, {}
                ).items():
                    lost[teid] = lost.get(teid, 0) + total
            statuses = self.controller.status_all()
            wire_charges: Dict[int, int] = {}
            for status in statuses.values():
                for teid, total in status["charges"].items():
                    teid = int(teid)
                    wire_charges[teid] = (
                        wire_charges.get(teid, 0) + int(total)
                    )
            shadow_charges = {
                int(teid): int(total)
                for teid, total in self.gateway.stats.bytes_charged.items()
                if int(total)
            }
            for teid, total in lost.items():
                remaining = shadow_charges.get(teid, 0) - total
                if remaining:
                    shadow_charges[teid] = remaining
                else:
                    shadow_charges.pop(teid, None)
            wire_charges = {t: v for t, v in wire_charges.items() if v}
            cluster = self.gateway.cluster
            assert cluster is not None
            replicas_equal = True
            for node_id, status in statuses.items():
                shadow_crc = serialize.fingerprint(
                    cluster.nodes[node_id].gpt.setsep
                )
                if int(status["gpt_crc"]) != shadow_crc:
                    replicas_equal = False
            return {
                "charging_identical": wire_charges == shadow_charges,
                "charged_teids": len(wire_charges),
                "gpt_replicas_identical": replicas_equal,
                "epoch": self.controller.epoch,
                "live_nodes": sorted(statuses),
            }
