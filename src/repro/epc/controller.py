"""The EPC controller: bearers, TEIDs and flow pinning (paper §2).

When a mobile opens a connection the controller allocates a GTP-U tunnel
(TEID) and assigns the flow to one cluster node — its *handling node*.  The
assignment obeys LTE-specific constraints (e.g. geographic proximity: all
mobiles of a region land on the same node), which is exactly why ScaleBricks
must treat the partitioning as externally fixed rather than hash-chosen
(§2, §7 "Skewed Forwarding Table Distribution").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core import hashfamily
from repro.epc.packets import FlowTuple
from repro.epc.tunnels import TeidAllocator


class AssignmentPolicy(enum.Enum):
    """How the controller pins new flows to handling nodes."""

    #: Uniform spread (the paper's "ideal case" where ScaleBricks scales).
    ROUND_ROBIN = "round_robin"
    #: Hash of the mobile's region: all flows of a region share a node —
    #: realistic, and the source of skew §7 discusses.
    GEOGRAPHIC = "geographic"
    #: Hash of the flow key (what a system *free* to choose would do).
    HASH = "hash"


@dataclass(frozen=True)
class FlowRecord:
    """Controller state for one bearer's downstream flow."""

    flow: FlowTuple
    key: int
    teid: int
    handling_node: int
    base_station_ip: int
    region: int


class EpcController:
    """Allocates bearers and keeps the authoritative flow table.

    Args:
        num_nodes: cluster size.
        policy: node-assignment policy.
        num_regions: geographic regions (``GEOGRAPHIC`` policy granularity).
        seed: randomness for ROUND_ROBIN's starting offset.
    """

    def __init__(
        self,
        num_nodes: int,
        policy: AssignmentPolicy = AssignmentPolicy.ROUND_ROBIN,
        num_regions: int = 64,
        seed: int = 0,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        self.policy = policy
        self.num_regions = num_regions
        self.teids = TeidAllocator()
        self.flows: Dict[int, FlowRecord] = {}
        # TEID-indexed columns mirroring ``flows`` (TEIDs are dense and
        # recycled), so the batch data path reads a bearer's key,
        # handling node and base station with one fancy index.  A free
        # TEID (and TEID 0, never allocated) has handling node -1.
        self.key_by_teid = np.zeros(1, dtype=np.uint64)
        self.node_by_teid = np.full(1, -1, dtype=np.int64)
        self.base_station_by_teid = np.zeros(1, dtype=np.int64)
        self._next_node = int(np.random.default_rng(seed).integers(num_nodes))

    def _assign_node(self, flow: FlowTuple, region: int) -> int:
        if self.policy is AssignmentPolicy.ROUND_ROBIN:
            # Reduce before use: num_nodes may have shrunk since the
            # counter was last advanced (membership drain).
            node = self._next_node % self.num_nodes
            self._next_node = (node + 1) % self.num_nodes
            return node
        if self.policy is AssignmentPolicy.GEOGRAPHIC:
            return region % self.num_nodes
        keys = np.asarray([flow.key()], dtype=np.uint64)
        return int(
            hashfamily.reduce_range(
                hashfamily.keyed_hash(keys, hashfamily.derive_stream("ctrl")),
                self.num_nodes,
            )[0]
        )

    def establish_bearer(
        self,
        flow: FlowTuple,
        base_station_ip: int,
        region: int = 0,
    ) -> FlowRecord:
        """Create a bearer: TEID + handling node for a downstream flow.

        Raises:
            ValueError: if the flow already has a bearer.
        """
        key = flow.key()
        if key in self.flows:
            raise ValueError(f"flow already established: {flow}")
        record = FlowRecord(
            flow=flow,
            key=key,
            teid=self.teids.allocate(),
            handling_node=self._assign_node(flow, region),
            base_station_ip=base_station_ip,
            region=region,
        )
        self.flows[key] = record
        self._store(record)
        return record

    def _store(self, record: FlowRecord) -> None:
        """Write one live record into the TEID-indexed columns."""
        teid = record.teid
        if teid >= self.node_by_teid.size:
            pad = max(64, 2 * teid) - self.node_by_teid.size
            self.key_by_teid = np.append(
                self.key_by_teid, np.zeros(pad, dtype=np.uint64)
            )
            self.node_by_teid = np.append(self.node_by_teid, np.full(pad, -1))
            self.base_station_by_teid = np.append(
                self.base_station_by_teid, np.zeros(pad, dtype=np.int64)
            )
        self.key_by_teid[teid] = record.key
        self.node_by_teid[teid] = record.handling_node
        self.base_station_by_teid[teid] = record.base_station_ip

    def teardown_bearer(self, flow: FlowTuple) -> Optional[FlowRecord]:
        """Release a bearer and its TEID; returns the removed record."""
        record = self.flows.pop(flow.key(), None)
        if record is not None:
            self.teids.release(record.teid)
            self.node_by_teid[record.teid] = -1
        return record

    def rehome(self, flow: FlowTuple, new_node: int) -> FlowRecord:
        """Re-pin a bearer to another handling node (same TEID)."""
        if not 0 <= new_node < self.num_nodes:
            raise ValueError("new_node out of range")
        record = self.flows.get(flow.key())
        if record is None:
            raise KeyError(f"no bearer for flow {flow}")
        moved = replace(record, handling_node=new_node)
        self.flows[moved.key] = moved
        self._store(moved)
        return moved

    def handover(self, flow: FlowTuple, new_base_station_ip: int) -> FlowRecord:
        """S1 handover: the mobile moved to another base station.

        Only the tunnel's far end changes — TEID, handling node and all
        per-flow state stay put, which is exactly why the EPC keeps flows
        pinned rather than re-assigning them on mobility.
        """
        record = self.flows.get(flow.key())
        if record is None:
            raise KeyError(f"no bearer for flow {flow}")
        moved = replace(record, base_station_ip=new_base_station_ip)
        self.flows[moved.key] = moved
        self._store(moved)
        return moved

    def record_for_key(self, key: int) -> Optional[FlowRecord]:
        """Controller record by canonical flow key."""
        return self.flows.get(key)

    def record_for_teid(self, teid: int) -> Optional[FlowRecord]:
        """Controller record by tunnel endpoint identifier."""
        if not 0 <= teid < self.node_by_teid.size or (
            self.node_by_teid[teid] < 0
        ):
            return None
        return self.flows.get(int(self.key_by_teid[teid]))

    def check_teids(self, keys: np.ndarray, teids: np.ndarray) -> None:
        """Assert that each ``teids[i]`` is the live bearer of ``keys[i]``.

        The FIB value of a routed packet must be the TEID the controller
        holds for its key; a mismatch means the data plane diverged from
        the control plane.  Raises even when Python runs with ``-O``.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        bad = (teids < 0) | (teids >= self.node_by_teid.size)
        safe = np.where(bad, 0, teids)
        bad |= (self.node_by_teid[safe] < 0) | (self.key_by_teid[safe] != keys)
        if bad.any():
            i = int(np.argmax(bad))
            raise AssertionError(
                f"FIB value {int(teids[i])} is not the controller's TEID "
                f"for flow key {int(keys[i])}"
            )

    def __len__(self) -> int:
        return len(self.flows)

    # ------------------------------------------------------------------
    # Bulk synthesis (benchmark population)
    # ------------------------------------------------------------------

    def establish_many(
        self,
        flows: Sequence[FlowTuple],
        base_station_ips: Sequence[int],
        regions: Optional[Sequence[int]] = None,
    ) -> List[FlowRecord]:
        """Vector bearer setup for benchmark-scale populations."""
        if regions is None:
            regions = [0] * len(flows)
        return [
            self.establish_bearer(flow, bs_ip, region)
            for flow, bs_ip, region in zip(flows, base_station_ips, regions)
        ]

    def node_loads(self) -> List[int]:
        """Flows pinned per node (skew visibility, §7)."""
        loads = [0] * self.num_nodes
        for record in self.flows.values():
            loads[record.handling_node] += 1
        return loads
