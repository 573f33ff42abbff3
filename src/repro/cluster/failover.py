"""Node failure handling and recovery (paper §7 "Isolation of Failure").

ScaleBricks' failure story rests on fate sharing: a node's partial FIB
holds exactly the flows it handles, so losing the node loses only those
flows — forwarding between the survivors continues untouched.  A
hash-partitioned cluster lacks this property: a dead *lookup* node breaks
flows that are handled elsewhere.

This module implements the operational side of that story for the
simulated cluster:

* ``fail_node`` — mark a node down; packets routed toward it are dropped
  with an attributable reason, everything else keeps flowing;
* ``impact_report`` — quantify exactly which flows a failure affects
  under each architecture (the §7 comparison, measurable);
* ``recover_flows`` — re-home the failed node's flows onto survivors
  using the update protocol (controller-driven re-pinning), restoring
  full service without touching unaffected state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.cluster.architectures import Architecture
from repro.cluster.cluster import Cluster
from repro.cluster.update import UpdateEngine
from repro.core import hashfamily


@dataclass(frozen=True)
class FailureImpact:
    """Which flows a single node failure takes down."""

    failed_node: int
    total_flows: int
    lost_own_flows: int
    lost_collateral_flows: int

    @property
    def lost_total(self) -> int:
        """All flows that stop forwarding."""
        return self.lost_own_flows + self.lost_collateral_flows

    @property
    def isolation(self) -> bool:
        """§7's property: only the failed node's own flows are lost."""
        return self.lost_collateral_flows == 0


class FailoverManager:
    """Tracks liveness and drives recovery for a simulated cluster."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster
        self.updates = UpdateEngine(cluster)
        self.down: Set[int] = set()

    # ------------------------------------------------------------------
    # Failure
    # ------------------------------------------------------------------

    def fail_node(self, node_id: int) -> None:
        """Mark a node as failed.

        The node's tables stay in memory (this is a liveness event, not a
        disk loss) but nothing can be delivered to it.
        """
        if not 0 <= node_id < len(self.cluster.nodes):
            raise ValueError(f"no node {node_id}")
        self.down.add(node_id)

    def restore_node(self, node_id: int) -> None:
        """Bring a failed node back (its state intact)."""
        self.down.discard(node_id)

    def is_up(self, node_id: int) -> bool:
        """Liveness check."""
        return node_id not in self.down

    def route(self, key, ingress: Optional[int] = None):
        """Route a packet, honouring liveness.

        A packet whose path would traverse a down node is reported as
        dropped with reason ``node_down`` (the survivors never see it).
        """
        if ingress is None:
            candidates = [
                n for n in range(len(self.cluster.nodes)) if self.is_up(n)
            ]
            if not candidates:
                raise RuntimeError("no live ingress nodes")
            ingress = int(np.random.default_rng().choice(candidates))
        result = self.cluster.route(key, ingress)
        if any(node in self.down for node in result.path):
            return result.as_drop("node_down")
        return result

    # ------------------------------------------------------------------
    # Impact analysis (§7)
    # ------------------------------------------------------------------

    def impact_report(self, failed_node: int) -> FailureImpact:
        """Classify every RIB flow as unaffected / own-loss / collateral.

        *Own* losses are flows handled by the failed node (unavoidable in
        any design — the state lives there).  *Collateral* losses are
        flows handled elsewhere that stop forwarding anyway; ScaleBricks
        and full duplication have none, hash partitioning loses every
        flow whose lookup node failed.
        """
        cluster = self.cluster
        own = 0
        collateral = 0
        total = 0
        for entry in cluster.rib.entries():
            total += 1
            if entry.node == failed_node:
                own += 1
                continue
            if (
                cluster.architecture is Architecture.HASH_PARTITION
                and cluster.lookup_node_of(entry.key) == failed_node
            ):
                collateral += 1
        return FailureImpact(
            failed_node=failed_node,
            total_flows=total,
            lost_own_flows=own,
            lost_collateral_flows=collateral,
        )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover_flows(
        self,
        failed_node: int,
        reassign: Optional[Dict[int, int]] = None,
    ) -> int:
        """Re-home the failed node's flows onto survivors (§7 recovery).

        Args:
            failed_node: the node whose flows must move.
            reassign: optional explicit ``key -> new node`` map; by default
                flows spread round-robin over the survivors (the controller
                would normally apply its own policy here).

        Returns:
            The number of flows moved.  Each move runs the normal §4.5
            update path (RIB owner recompute + delta broadcast), so
            recovery cost scales with the failed node's flow count, not
            the cluster's.
        """
        survivors = [
            n
            for n in range(len(self.cluster.nodes))
            if n != failed_node and self.is_up(n)
        ]
        if not survivors:
            raise RuntimeError("no survivors to recover onto")
        moved = 0
        victims = [
            entry
            for entry in list(self.cluster.rib.entries())
            if entry.node == failed_node
        ]
        for i, entry in enumerate(victims):
            if reassign is not None and entry.key in reassign:
                target = reassign[entry.key]
            else:
                target = survivors[i % len(survivors)]
            if target == failed_node or not self.is_up(target):
                raise ValueError(f"cannot recover onto node {target}")
            self.updates.insert_flow(entry.key, target, entry.value)
            moved += 1
        return moved
