"""The Data Plane Engine: per-flow processing at the handling node (§2).

The paper leaves the DPE untouched ("we change only the Packet Forwarding
Engine"), but its presence is why flows must be *pinned*: the handling
node keeps per-flow state.  This module implements a functional DPE so
the reproduction exercises that state end to end:

* a per-bearer state machine (IDLE -> ACTIVE -> IDLE on inactivity);
* charging: byte/packet counters per direction and Charging Data Record
  (CDR) generation on bearer close;
* policing: an optional token-bucket rate limiter per bearer (the
  "administrative functions such as charging and access control" of §2).

Time is explicit (callers pass ``now`` in seconds) so tests and the
discrete simulation stay deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


class BearerState(enum.Enum):
    """Lifecycle of a bearer's data-plane context."""

    IDLE = "idle"
    ACTIVE = "active"
    CLOSED = "closed"


@dataclass
class ChargingRecord:
    """A CDR emitted when a bearer closes."""

    teid: int
    uplink_bytes: int
    downlink_bytes: int
    uplink_packets: int
    downlink_packets: int
    opened_at: float
    closed_at: float

    @property
    def duration(self) -> float:
        """Bearer lifetime in seconds."""
        return self.closed_at - self.opened_at


@dataclass
class TokenBucket:
    """Classic token-bucket policer.

    Attributes:
        rate_bytes_per_s: sustained rate.
        burst_bytes: bucket depth.
    """

    rate_bytes_per_s: float
    burst_bytes: float
    _tokens: float = field(default=-1.0, repr=False)
    _last: float = field(default=0.0, repr=False)

    def allow(self, size: int, now: float) -> bool:
        """Consume ``size`` bytes if the bucket permits; refills lazily."""
        if self._tokens < 0:
            self._tokens = self.burst_bytes
            self._last = now
        elapsed = max(0.0, now - self._last)
        self._last = now
        self._tokens = min(
            self.burst_bytes, self._tokens + elapsed * self.rate_bytes_per_s
        )
        if self._tokens >= size:
            self._tokens -= size
            return True
        return False


@dataclass
class FlowContext:
    """Per-bearer data-plane state held at the handling node."""

    teid: int
    state: BearerState = BearerState.IDLE
    uplink_bytes: int = 0
    downlink_bytes: int = 0
    uplink_packets: int = 0
    downlink_packets: int = 0
    opened_at: float = 0.0
    last_activity: float = 0.0
    policer: Optional[TokenBucket] = None


class DataPlaneEngine:
    """Per-node DPE: charging, policing and bearer state.

    Args:
        idle_timeout_s: inactivity after which an ACTIVE bearer returns
            to IDLE (checked lazily and by :meth:`expire_idle`).
    """

    def __init__(self, idle_timeout_s: float = 30.0) -> None:
        self.idle_timeout_s = idle_timeout_s
        self._flows: Dict[int, FlowContext] = {}
        self.records: List[ChargingRecord] = []
        self.policed_drops = 0

    # ------------------------------------------------------------------
    # Bearer lifecycle
    # ------------------------------------------------------------------

    def open_bearer(
        self,
        teid: int,
        now: float = 0.0,
        rate_limit_bytes_per_s: Optional[float] = None,
        burst_bytes: Optional[float] = None,
    ) -> FlowContext:
        """Create the data-plane context for a bearer."""
        if teid in self._flows:
            raise ValueError(f"bearer {teid} already open")
        policer = None
        if rate_limit_bytes_per_s is not None:
            policer = TokenBucket(
                rate_bytes_per_s=rate_limit_bytes_per_s,
                burst_bytes=burst_bytes or rate_limit_bytes_per_s,
            )
        context = FlowContext(
            teid=teid, opened_at=now, last_activity=now, policer=policer
        )
        self._flows[teid] = context
        return context

    def close_bearer(self, teid: int, now: float = 0.0) -> ChargingRecord:
        """Tear a bearer down and emit its CDR."""
        context = self._flows.pop(teid, None)
        if context is None:
            raise KeyError(f"bearer {teid} is not open")
        context.state = BearerState.CLOSED
        record = ChargingRecord(
            teid=teid,
            uplink_bytes=context.uplink_bytes,
            downlink_bytes=context.downlink_bytes,
            uplink_packets=context.uplink_packets,
            downlink_packets=context.downlink_packets,
            opened_at=context.opened_at,
            closed_at=now,
        )
        self.records.append(record)
        return record

    def context(self, teid: int) -> Optional[FlowContext]:
        """The bearer's live context, if open."""
        return self._flows.get(teid)

    def __len__(self) -> int:
        return len(self._flows)

    # ------------------------------------------------------------------
    # Packet processing
    # ------------------------------------------------------------------

    def process(
        self, teid: int, size: int, downlink: bool, now: float = 0.0
    ) -> bool:
        """Account one packet against its bearer.

        Returns False (drop) when the bearer is unknown or the policer
        rejects the packet; True otherwise.
        """
        context = self._flows.get(teid)
        if context is None:
            return False
        if context.policer is not None and not context.policer.allow(size, now):
            self.policed_drops += 1
            return False
        if (
            context.state is BearerState.ACTIVE
            and now - context.last_activity > self.idle_timeout_s
        ):
            context.state = BearerState.IDLE
        context.state = BearerState.ACTIVE
        context.last_activity = now
        if downlink:
            context.downlink_bytes += size
            context.downlink_packets += 1
        else:
            context.uplink_bytes += size
            context.uplink_packets += 1
        return True

    def process_batch(
        self,
        teids: np.ndarray,
        sizes: np.ndarray,
        downlink: bool,
        nows: np.ndarray,
    ) -> np.ndarray:
        """Account many packets at once; returns per-packet accept flags.

        Equivalent to calling :meth:`process` per packet in input order.
        Packets are grouped by bearer in one sort; a group without a
        policer collapses to one plain-int counter update (the
        intermediate state transitions have no net effect), while policed
        bearers replay their packets through the scalar path so the token
        bucket sees every arrival.
        """
        teids = np.asarray(teids, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        nows = np.asarray(nows, dtype=np.float64)
        n = teids.size
        if n == 0:
            return np.zeros(0, dtype=bool)
        # One grouping pass: a stable sort puts each bearer's packets
        # together in arrival order, so a group's last element is the
        # packet whose ``now`` the bearer keeps.
        order = np.argsort(teids, kind="stable")
        sorted_teids = teids[order]
        edge = np.empty(n + 1, dtype=bool)
        edge[0] = edge[n] = True
        np.not_equal(sorted_teids[1:], sorted_teids[:-1], out=edge[1:n])
        bounds = np.flatnonzero(edge)
        starts = bounds[:-1]
        totals = np.add.reduceat(sizes[order], starts)
        last_now = nows[order[bounds[1:] - 1]]
        flows, active = self._flows, BearerState.ACTIVE
        # Groups without a plain context (unknown or policed bearers)
        # replay packet by packet through :meth:`process`.
        replay = []
        for teid, start, end, total, now in zip(
            sorted_teids[starts].tolist(), starts.tolist(),
            bounds[1:].tolist(), totals.tolist(), last_now.tolist(),
        ):
            context = flows.get(teid)
            if context is None or context.policer is not None:
                replay.append((teid, start, end))
                continue
            context.state = active
            context.last_activity = now
            if downlink:
                context.downlink_bytes += total
                context.downlink_packets += end - start
            else:
                context.uplink_bytes += total
                context.uplink_packets += end - start
        ok = np.ones(n, dtype=bool)
        for teid, start, end in replay:
            for i in order[start:end].tolist():
                ok[i] = self.process(
                    teid, int(sizes[i]), downlink, float(nows[i])
                )
        return ok

    def expire_idle(self, now: float) -> int:
        """Demote bearers inactive for longer than the idle timeout."""
        demoted = 0
        for context in self._flows.values():
            if (
                context.state is BearerState.ACTIVE
                and now - context.last_activity > self.idle_timeout_s
            ):
                context.state = BearerState.IDLE
                demoted += 1
        return demoted

    # ------------------------------------------------------------------
    # State migration (flow re-homing between nodes)
    # ------------------------------------------------------------------

    def export_context(self, teid: int) -> FlowContext:
        """Remove and return a bearer's context for transfer to a peer.

        Counters travel with the context, so charging stays continuous
        across a re-homing (no double-billing, no lost bytes).
        """
        context = self._flows.pop(teid, None)
        if context is None:
            raise KeyError(f"bearer {teid} is not open here")
        return context

    def import_context(self, context: FlowContext) -> None:
        """Adopt a context exported by a peer node."""
        if context.teid in self._flows:
            raise ValueError(f"bearer {context.teid} already open here")
        self._flows[context.teid] = context

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def active_bearers(self) -> int:
        """Bearers currently in ACTIVE state."""
        return sum(
            1
            for c in self._flows.values()
            if c.state is BearerState.ACTIVE
        )

    def total_bytes(self) -> int:
        """All accounted bytes across open bearers."""
        return sum(
            c.uplink_bytes + c.downlink_bytes for c in self._flows.values()
        )
