"""Cluster substrate: nodes, switch fabric, FIB architectures, RIB, updates.

This package is the *functional* half of the reproduction (packets really
move between simulated nodes, misroutes really get dropped by the handling
node's exact FIB); the *performance* half lives in :mod:`repro.model`.
"""

from repro.cluster.architectures import Architecture
from repro.cluster.fabric import FabricLoss, FabricStats, SwitchFabric
from repro.cluster.node import ClusterNode, NodeCounters
from repro.cluster.cluster import Cluster, INGRESS_POLICIES, RouteResult
from repro.cluster.rib import RoutingInformationBase, RibEntry
from repro.cluster.update import UpdateEngine, UpdateStats
from repro.cluster.failover import FailoverManager, FailureImpact
from repro.cluster.membership import ResizeReport, resize

__all__ = [
    "FailoverManager",
    "FailureImpact",
    "ResizeReport",
    "resize",
    "Architecture",
    "SwitchFabric",
    "FabricLoss",
    "FabricStats",
    "INGRESS_POLICIES",
    "ClusterNode",
    "NodeCounters",
    "Cluster",
    "RouteResult",
    "RoutingInformationBase",
    "RibEntry",
    "UpdateEngine",
    "UpdateStats",
]
