"""Spawn, drive and audit a local multi-process ScaleBricks cluster.

Two layers live here:

* :class:`LocalRuntime` — a context manager that spawns N
  :class:`~repro.runtime.daemon.NodeDaemon` processes
  (``multiprocessing.Process``), each bound to an ephemeral local TCP
  port announced back through a pipe, with ``kill()`` (SIGKILL, for
  failure drills), graceful ``stop()`` and leak accounting;
* :func:`run_workload` / :func:`run_demo` — the differential harness:
  the same seeded workload is played against the socket cluster *and* an
  in-process :class:`~repro.epc.gateway.EpcGateway` shadow, frame by
  frame and update by update, and the report asserts byte-identical
  GTP-U output, identical per-TEID charging and CRC-identical GPT
  replicas.  Everything is pinned (per-frame ingress, update mix, flow
  population), so the same seed produces the same JSON report, byte for
  byte — the determinism the chaos and CI harnesses gate on.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.architectures import Architecture
from repro.core import serialize, shm
from repro.epc.fastpath import OUTER_SIZE
from repro.epc.gateway import EpcGateway
from repro.epc.packets import parse_ip
from repro.epc.traffic import FlowGenerator
from repro.obs.metrics import MetricsRegistry
from repro.runtime.controller import RuntimeController
from repro.runtime.daemon import NodeDaemon
from repro.runtime.protocol import (
    OP_INSERT,
    OP_REMOVE,
    REASON_TO_STATUS,
    RouteOutcome,
    STATUS_DELIVERED,
    UpdateOp,
)

#: The demo gateway's tunnel endpoint (TEST-NET-1, never routable).
DEMO_GATEWAY_IP = "192.0.2.1"


def _daemon_entry(host: str, conn) -> None:
    """Child-process body: serve one daemon, announce the bound port."""

    def ready(port: int) -> None:
        conn.send(port)
        conn.close()

    NodeDaemon(host=host, port=0).serve_forever(ready=ready)


class LocalRuntime:
    """A cluster of daemon child processes on loopback."""

    def __init__(self, num_nodes: int, host: str = "127.0.0.1") -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        self.host = host
        self.processes: List[multiprocessing.Process] = []
        self.addresses: List[Tuple[str, int]] = []

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "LocalRuntime":
        """Spawn every daemon and wait for its bound port."""
        for _ in range(self.num_nodes):
            self._spawn()
        return self

    def _spawn(self, node_id: Optional[int] = None) -> Tuple[str, int]:
        parent, child = multiprocessing.Pipe(duplex=False)
        process = multiprocessing.Process(
            target=_daemon_entry, args=(self.host, child), daemon=True
        )
        process.start()
        child.close()
        if not parent.poll(30.0):
            process.kill()
            raise RuntimeError("daemon did not announce its port in time")
        port = int(parent.recv())
        parent.close()
        address = (self.host, port)
        if node_id is None:
            self.processes.append(process)
            self.addresses.append(address)
        else:
            self.processes[node_id] = process
            self.addresses[node_id] = address
        return address

    def add_node(self) -> Tuple[str, int]:
        """Spawn one more daemon (for join drills); returns its address."""
        self.num_nodes += 1
        return self._spawn()

    def respawn(self, node_id: int) -> Tuple[str, int]:
        """Spawn a fresh daemon in a killed node's slot (rejoin drills).

        The replacement binds a new ephemeral port; pair with
        :meth:`RuntimeController.rejoin_node`, which re-announces the
        topology to every peer.
        """
        if self.processes[node_id].is_alive():
            raise ValueError(f"node {node_id} is still alive")
        return self._spawn(node_id)

    def kill(self, node_id: int) -> None:
        """SIGKILL a daemon — the §7 failure drill (no goodbye)."""
        process = self.processes[node_id]
        process.kill()
        process.join(timeout=10.0)

    def suspend(self, node_id: int) -> None:
        """SIGSTOP a daemon: alive but unresponsive — a SUSPECT maker.

        The process keeps its sockets open but answers nothing, which is
        exactly the grey failure fencing exists for.  Pair with
        :meth:`resume` or :meth:`kill`.
        """
        process = self.processes[node_id]
        assert process.pid is not None
        os.kill(process.pid, signal.SIGSTOP)

    def resume(self, node_id: int) -> None:
        """SIGCONT a suspended daemon (the grey failure clears)."""
        process = self.processes[node_id]
        assert process.pid is not None
        os.kill(process.pid, signal.SIGCONT)

    def stop(self) -> None:
        """Terminate every child still running and reap it."""
        for process in self.processes:
            if process.is_alive():
                process.terminate()
        for process in self.processes:
            process.join(timeout=10.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=10.0)

    def leaked(self) -> List[int]:
        """Node ids whose child process is still alive (should be [])."""
        return [
            node_id
            for node_id, process in enumerate(self.processes)
            if process.is_alive()
        ]

    def __enter__(self) -> "LocalRuntime":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()


# ----------------------------------------------------------------------
# Differential workload
# ----------------------------------------------------------------------


def _compare_frames(
    shadow: Sequence[Tuple[object, Optional[bytes]]],
    wire: Sequence[RouteOutcome],
) -> Dict[str, int]:
    """Frame-by-frame shadow-vs-wire comparison (the §3 differential)."""
    assert len(shadow) == len(wire)
    divergences = 0
    delivered = 0
    dropped = 0
    byte_identical = True
    for (result, out), outcome in zip(shadow, wire):
        if out is not None:
            delivered += 1
            if (
                outcome.status != STATUS_DELIVERED
                or outcome.out != out
                or outcome.handler != result.handled_by
            ):
                divergences += 1
                if outcome.out != out:
                    byte_identical = False
        else:
            dropped += 1
            expected = REASON_TO_STATUS.get(result.reason, -1)
            if outcome.status != expected:
                divergences += 1
    return {
        "frames": len(wire),
        "delivered": delivered,
        "dropped": dropped,
        "divergences": divergences,
        "byte_identical": bool(byte_identical and divergences == 0),
    }


def _audit_state(
    controller: RuntimeController,
    gateway: EpcGateway,
    lost_charges: Optional[Dict[int, int]] = None,
) -> Dict[str, object]:
    """Global-state differential: charging dicts and GPT replica CRCs.

    ``lost_charges`` holds per-TEID bytes that died with a killed
    daemon's counters: the shadow's global charging dict still carries
    them (fate sharing, §7 — bearer state on the failed node is lost),
    so they are subtracted before the comparison.
    """
    statuses = controller.status_all()
    wire_charges: Dict[int, int] = {}
    for status in statuses.values():
        for teid, total in status["charges"].items():
            teid = int(teid)
            wire_charges[teid] = wire_charges.get(teid, 0) + int(total)
    shadow_charges = {
        int(teid): int(total)
        for teid, total in gateway.stats.bytes_charged.items()
        if int(total)
    }
    for teid, total in (lost_charges or {}).items():
        remaining = shadow_charges.get(teid, 0) - total
        if remaining:
            shadow_charges[teid] = remaining
        else:
            shadow_charges.pop(teid, None)
    wire_charges = {t: v for t, v in wire_charges.items() if v}
    cluster = gateway.cluster
    assert cluster is not None
    replica_crcs_equal = True
    for node_id, status in statuses.items():
        shadow_crc = serialize.fingerprint(cluster.nodes[node_id].gpt.setsep)
        if int(status["gpt_crc"]) != shadow_crc:
            replica_crcs_equal = False
    # Bounded mismatch breakdown: zeros on a clean run, and enough to
    # localise a divergence (over = wire charged more than the shadow,
    # e.g. a frame routed twice; under = wire missed a charge).
    over = sorted(
        t for t in wire_charges
        if wire_charges[t] > shadow_charges.get(t, 0)
    )
    under = sorted(
        t for t in shadow_charges
        if shadow_charges[t] > wire_charges.get(t, 0)
    )
    return {
        "statuses": statuses,
        "charging_identical": wire_charges == shadow_charges,
        "charged_teids": len(wire_charges),
        "charge_mismatches": {
            "over": len(over),
            "under": len(under),
            "sample": [
                [t, wire_charges.get(t, 0), shadow_charges.get(t, 0)]
                for t in (over + under)[:5]
            ],
        },
        "gpt_replicas_identical": replica_crcs_equal,
    }


def run_workload(
    addresses: Sequence[Tuple[str, int]],
    num_nodes: int,
    seed: int = 7,
    flows: int = 2000,
    packets: int = 4000,
    updates: int = 1000,
    kill_node: Optional[int] = None,
    killer: Optional[Callable[[int], None]] = None,
    fence_node: Optional[int] = None,
    suspender: Optional[Callable[[int], None]] = None,
    miss_threshold: int = 3,
    heartbeat_interval: float = 0.05,
    ping_timeout: float = 2.0,
    use_shm: bool = False,
) -> Dict[str, object]:
    """Drive the full differential workload against a live cluster.

    Phases: bootstrap from a seeded shadow gateway, routed traffic
    (half the packets), one liveness sweep, a seeded §4.5 update storm
    (connect/rehome/disconnect mix), an optional failure drill (SIGKILL
    with §7 repair, or a SIGSTOP-then-fence grey-failure drill), the
    remaining traffic, then the global audit.

    Args:
        addresses: daemon addresses, index = node id.
        num_nodes: cluster size (must match ``addresses``).
        seed: master seed; same seed ⇒ same report, byte for byte.
        flows: initial bearer population.
        packets: routed frames, split across the two traffic phases.
        updates: RIB operations in the update storm.
        kill_node: daemon to SIGKILL between the phases (None: no drill).
        killer: callback actually delivering the kill (from
            :meth:`LocalRuntime.kill`); required when ``kill_node`` or
            ``fence_node`` is set.
        fence_node: daemon to SIGSTOP between the phases, then fence
            (force-kill + immediate repair) once SUSPECT.  Mutually
            exclusive with ``kill_node``.
        suspender: callback delivering the SIGSTOP (from
            :meth:`LocalRuntime.suspend`); required with ``fence_node``.
        miss_threshold: consecutive heartbeat misses declaring death.
        heartbeat_interval: nominal probe period, recorded in the report
            (pacing is poll-driven, so this does not gate determinism).
        ping_timeout: heartbeat probe timeout in seconds (a suspended
            daemon costs one timeout per poll, so fence drills want this
            small).
        use_shm: publish GPT snapshots as shared-memory segments and
            bootstrap daemons by ``MSG_STATE_REF`` (scale tier); falls
            back to wire snapshots per daemon where unavailable.
    """
    if len(addresses) != num_nodes:
        raise ValueError("addresses and num_nodes disagree")
    if kill_node is not None and fence_node is not None:
        raise ValueError("kill_node and fence_node are mutually exclusive")
    if kill_node is not None:
        if killer is None:
            raise ValueError("kill_node requires a killer callback")
        if not 0 <= kill_node < num_nodes:
            raise ValueError("kill_node out of range")
    if fence_node is not None:
        if killer is None or suspender is None:
            raise ValueError(
                "fence_node requires killer and suspender callbacks"
            )
        if not 0 <= fence_node < num_nodes:
            raise ValueError("fence_node out of range")

    # The shadow: an in-process gateway with its own registry, living the
    # exact same life as the socket cluster.
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
        addresses, miss_threshold=miss_threshold, ping_timeout=ping_timeout,
        use_shm=use_shm,
    )
    controller.killer = killer
    controller.connect()
    bootstrap = controller.bootstrap_from_gateway(gateway)

    ingress_rng = np.random.default_rng(seed * 65537 + 11)
    report: Dict[str, object] = {
        "architecture": "scalebricks",
        "nodes": num_nodes,
        "seed": seed,
    }
    try:
        # -- traffic, phase 1 (everything alive) -----------------------
        first = packets // 2
        frames = generator.packet_stream(live_flows, first)
        ingress = ingress_rng.integers(num_nodes, size=first)
        shadow = gateway.process_downstream_batch(frames, ingress)
        wire = controller.route_frames(frames, [int(n) for n in ingress])
        phase1 = _compare_frames(shadow, wire)

        # Charges the failure drill will destroy: the drill's victim
        # keeps its phase-1 charging counters only in its own memory.
        victim = kill_node if kill_node is not None else fence_node
        lost_charges: Dict[int, int] = {}
        if victim is not None:
            for result, out in shadow:
                if out is not None and result.handled_by == victim:
                    teid = int(result.value)
                    lost_charges[teid] = (
                        lost_charges.get(teid, 0) + len(out) - OUTER_SIZE
                    )

        # -- liveness sweep (all alive) --------------------------------
        controller.poll_liveness()
        pre_kill_dead = controller.monitor.dead_nodes()

        # -- §4.5 update storm -----------------------------------------
        update_rng = np.random.default_rng(seed * 65537 + 13)
        ops: List[UpdateOp] = []
        connects = rehomes = disconnects = 0
        for _ in range(updates):
            action = int(update_rng.integers(100))
            if action < 30 or len(live_flows) <= 2:
                flow = generator.flows(1)[0]
                record = gateway.connect(
                    flow,
                    generator.base_station_for(flow),
                    generator.region_for(flow),
                )
                ops.append(UpdateOp(
                    OP_INSERT, record.key, record.handling_node,
                    record.teid, record.base_station_ip,
                ))
                live_flows.append(flow)
                connects += 1
            elif action < 85:
                flow = live_flows[int(update_rng.integers(len(live_flows)))]
                target = int(update_rng.integers(num_nodes))
                record = gateway.controller.record_for_key(flow.key())
                assert record is not None
                if record.handling_node == target:
                    continue
                moved = gateway.rehome_flow(flow, target)
                ops.append(UpdateOp(
                    OP_INSERT, moved.key, target, moved.teid,
                    moved.base_station_ip,
                ))
                rehomes += 1
            else:
                index = int(update_rng.integers(len(live_flows)))
                flow = live_flows.pop(index)
                assert gateway.disconnect(flow)
                ops.append(UpdateOp(OP_REMOVE, flow.key()))
                disconnects += 1
        update_totals = controller.push_updates(ops)
        update_totals["connects"] = connects
        update_totals["rehomes"] = rehomes
        update_totals["disconnects"] = disconnects
        update_totals["mean_delta_bits"] = round(
            update_totals["delta_bits"]
            / max(1, update_totals["delta_broadcasts"]),
            2,
        )

        # -- optional failure drill (§7) -------------------------------
        liveness: Dict[str, object] = {
            "interval_s": heartbeat_interval,
            "miss_threshold": miss_threshold,
            "pre_kill_dead": pre_kill_dead,
            "killed_node": kill_node,
            "fenced_node": fence_node,
            "detection_polls": None,
            "recovered_flows": 0,
        }
        if kill_node is not None:
            controller.kill_node(kill_node)
            liveness["detection_polls"] = controller.await_detection(
                kill_node
            )
            repair = controller.handle_node_failure(kill_node, gateway)
            liveness["recovered_flows"] = repair.affected_flows
            liveness["adopted_rib_entries"] = (
                repair.detail["adopted_rib_entries"]
            )
        elif fence_node is not None:
            # Grey failure: the daemon freezes (SIGSTOP) but its sockets
            # stay open, so it never goes DEAD on its own — exactly the
            # limbo fencing exists for.  One poll records the miss
            # (ALIVE → SUSPECT), then the fence force-kills and repairs
            # without waiting out the remaining miss_threshold.
            assert suspender is not None
            suspender(fence_node)
            controller.poll_liveness()
            liveness["detection_polls"] = 1
            fence = controller.fence_node(fence_node, gateway)
            liveness["recovered_flows"] = fence.affected_flows
            liveness["adopted_rib_entries"] = (
                fence.detail["adopted_rib_entries"]
            )
            liveness["state_before_fence"] = fence.detail["state_before"]

        # -- traffic, phase 2 (post-update, maybe post-failure) --------
        # A few never-connected flows ride along: the GPT still maps them
        # somewhere (one-sided error, §3.3) and the exact FIB refuses
        # them — on both sides of the differential.
        second = packets - first
        frames = generator.packet_stream(live_flows, second)
        frames.extend(
            generator.packet_stream(generator.flows(8), min(64, second))
        )
        ingress = ingress_rng.integers(num_nodes, size=len(frames))
        shadow = gateway.process_downstream_batch(frames, ingress)
        wire = controller.route_frames(frames, [int(n) for n in ingress])
        phase2 = _compare_frames(shadow, wire)

        # -- the global audit ------------------------------------------
        audit = _audit_state(controller, gateway, lost_charges)
        statuses = audit.pop("statuses")

        differential = {
            "frames": phase1["frames"] + phase2["frames"],
            "delivered": phase1["delivered"] + phase2["delivered"],
            "dropped": phase1["dropped"] + phase2["dropped"],
            "divergences": phase1["divergences"] + phase2["divergences"],
            "byte_identical": bool(
                phase1["byte_identical"] and phase2["byte_identical"]
            ),
            "charging_identical": audit["charging_identical"],
            "charged_teids": audit["charged_teids"],
            "gpt_replicas_identical": audit["gpt_replicas_identical"],
        }
        update_totals["snapshot_bytes_shipped"] = (
            bootstrap["total_shipped_bytes"]
        )
        report["shm"] = {
            "enabled": controller.use_shm,
            "bootstrap_attached": int(bootstrap.get("shm_attached", 0)),
            "segment": bootstrap.get("segment"),
        }
        report["differential"] = differential
        report["update_protocol"] = update_totals
        report["liveness"] = liveness
        report["daemons"] = {
            str(node_id): {
                "fib_entries": status["fib_entries"],
                "rib_entries": status["rib_entries"],
                "gpt_bytes": status["gpt_bytes"],
                "frames_local": status["counters"].get(
                    "runtime.frames.local", 0
                ),
                "frames_forwarded": status["counters"].get(
                    "runtime.frames.forwarded", 0
                ),
                "frames_received": status["counters"].get(
                    "runtime.frames.received", 0
                ),
                "deltas_applied": status["counters"].get(
                    "runtime.deltas.applied", 0
                ),
            }
            for node_id, status in sorted(statuses.items())
        }
        report["ok"] = bool(
            differential["divergences"] == 0
            and differential["byte_identical"]
            and differential["charging_identical"]
            and differential["gpt_replicas_identical"]
        )
    finally:
        controller.shutdown_all()
    return report


def run_demo(
    num_nodes: int = 4,
    seed: int = 7,
    flows: int = 2000,
    packets: int = 4000,
    updates: int = 1000,
    kill_node: Optional[int] = None,
    fence_node: Optional[int] = None,
    miss_threshold: int = 3,
    heartbeat_interval: float = 0.05,
    use_shm: bool = False,
) -> Dict[str, object]:
    """Spawn a local cluster, run the workload, account for every child."""
    runtime = LocalRuntime(num_nodes)
    with runtime:
        report = run_workload(
            runtime.addresses,
            num_nodes,
            seed=seed,
            flows=flows,
            packets=packets,
            updates=updates,
            kill_node=kill_node,
            killer=runtime.kill,
            fence_node=fence_node,
            suspender=runtime.suspend,
            miss_threshold=miss_threshold,
            heartbeat_interval=heartbeat_interval,
            ping_timeout=0.5 if fence_node is not None else 2.0,
            use_shm=use_shm,
        )
        runtime.stop()
        report["leaked_processes"] = len(runtime.leaked())
        # This process published any segments (SegmentPublisher names
        # embed its pid); all must be unlinked by controller shutdown.
        report["leaked_shm_segments"] = len(
            shm.list_segments(f"{shm.SEGMENT_PREFIX}{os.getpid():x}-")
        )
    return report


def report_json(report: Dict[str, object]) -> str:
    """Canonical JSON for a workload report (sorted keys, stable)."""
    return json.dumps(report, sort_keys=True, indent=2)
